// Package ode provides the suite's initial-value-problem solvers,
// standing in for the IMSL C library routines the paper's runtime calls:
//
//   - RKV65 corresponds to imsl_f_ode_runge_kutta, the Runge–Kutta–Verner
//     fifth- and sixth-order embedded pair (Verner's DVERK tableau),
//     efficient for non-stiff systems;
//   - BDF corresponds to imsl_f_ode_adams_gear, a variable-order
//     backward-differentiation (Gear) method for stiff systems — and
//     chemical kinetics, where species complete their reactions in widely
//     separated epochs, is stiff, so the parameter estimator uses BDF.
//
// Both solvers advance a state vector in place with adaptive step-size
// control against mixed absolute/relative tolerances.
package ode

import (
	"errors"
	"fmt"
	"math"

	"rms/internal/budget"
	"rms/internal/linalg"
	"rms/internal/telemetry"
)

// Func evaluates dy = f(t, y). dy is preallocated by the solver.
type Func func(t float64, y, dy []float64)

// Options configures a solver. Zero values select the documented
// defaults.
type Options struct {
	// RTol and ATol are the relative and absolute error tolerances
	// (defaults 1e-6 and 1e-9).
	RTol, ATol float64
	// InitialStep seeds the step size (default: derived from the interval).
	InitialStep float64
	// MaxSteps aborts runaway integrations (default 10 million).
	MaxSteps int
	// FixedStep disables adaptive control and uses exactly this step
	// (testing hook for convergence-order measurements).
	FixedStep float64
	// FixedOrder pins the BDF order to 1..5 (testing hook; 0 = adaptive).
	FixedOrder int
	// Jacobian, when non-nil, supplies an analytic ∂f/∂y for the BDF
	// solver's dense Newton iteration in place of finite differences; dst
	// is n×n and owned by the solver.
	Jacobian func(t float64, y []float64, dst *linalg.Matrix)
	// SparsePattern with SparseJacobian enables the sparse Newton path:
	// SparsePattern is the structural pattern of ∂f/∂y including the
	// full diagonal (codegen.JacobianProgram.PatternCSR produces it), and
	// SparseJacobian fills a matrix with that layout. The BDF solver
	// switches to CSR storage and a sparse LU with one-time symbolic
	// factorization when the pattern density is at most SparseThreshold
	// and the dimension is at least SparseMinDim; otherwise it keeps the
	// dense path (small systems and near-dense patterns gain nothing from
	// sparsity), where SparseJacobian goes unused.
	SparsePattern  *linalg.CSR
	SparseJacobian func(t float64, y []float64, dst *linalg.CSR)
	// SparseThreshold is the maximum pattern density for the sparse path
	// (default 0.2; negative disables the sparse path entirely).
	SparseThreshold float64
	// SparseMinDim is the minimum dimension for the sparse path
	// (default 20).
	SparseMinDim int
	// SymbolicLU, when non-nil, is a prebuilt symbolic factorization of
	// SparsePattern (linalg.NewSparseLU over the same pattern). The
	// solver then forks it — private numeric storage over the shared
	// one-time ordering and fill analysis — instead of recomputing the
	// symbolic phase. The service layer's compiled-model cache stores one
	// per model so concurrent requests amortize the analysis; numerics
	// are identical either way (the ordering is a deterministic function
	// of the pattern). Ignored when the sparse gates reject the pattern.
	SymbolicLU *linalg.SparseLU
	// Observer, when non-nil, receives one StepEvent per adaptive step
	// attempt — accepted or rejected — with the step's size, order,
	// error-norm and Newton/factorization work. Fixed-step testing modes
	// do not emit events. The callback runs on the solver's goroutine;
	// keep it cheap.
	Observer StepObserver
	// Budget, when non-nil, is checked once per step attempt; a tripped
	// budget aborts the integration cooperatively with the budget's error
	// (wrapping budget.ErrExhausted), leaving y at the last accepted
	// state. A nil budget costs nothing.
	Budget *budget.Budget
	// Log, when non-nil, records rare solver events — currently the
	// sparse→dense degradation — in the flight recorder. Per-step hot
	// paths never log; StepObserver is the per-step channel.
	Log *telemetry.Logger
}

// StepEvent is one adaptive step attempt's telemetry record.
type StepEvent struct {
	// T is the internal time the attempt started from; H the attempted
	// step size (signed).
	T, H float64
	// Order is the method order of the attempt (BDF 1–5; RKV65 always 6).
	Order int
	// Accepted reports whether error control accepted the step.
	Accepted bool
	// ErrNorm is the weighted local error estimate (≤ 1 on accepts).
	ErrNorm float64
	// NewtonIters and Factorizations count the corrector work of this
	// attempt (0 for explicit solvers).
	NewtonIters, Factorizations int
	// Sparse reports the attempt ran the sparse Newton path.
	Sparse bool
}

// StepObserver consumes per-step solver telemetry.
type StepObserver func(StepEvent)

// minStepFraction is the step-size floor as a fraction of the
// integration span: step control that pushes the step below it aborts
// the integration with ErrStepTooSmall.
const minStepFraction = 1e-14

// minStep returns the step-size floor of an integration from t0 to t1.
func minStep(t0, t1 float64) float64 { return math.Abs(t1-t0) * minStepFraction }

func (o Options) withDefaults(t0, t1 float64) Options {
	span := math.Abs(t1 - t0)
	if o.RTol == 0 {
		o.RTol = 1e-6
	}
	if o.ATol == 0 {
		o.ATol = 1e-9
	}
	if o.InitialStep == 0 {
		o.InitialStep = span / 100
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 10_000_000
	}
	if o.SparseThreshold == 0 {
		o.SparseThreshold = 0.2
	}
	if o.SparseMinDim == 0 {
		o.SparseMinDim = 20
	}
	return o
}

// Stats reports the work an integration performed.
type Stats struct {
	// Steps and Rejected count accepted and rejected attempts.
	Steps, Rejected int
	// FEvals counts right-hand-side evaluations.
	FEvals int
	// JEvals and Factorizations count Jacobian builds and LU factorings
	// (BDF only).
	JEvals, Factorizations int
	// NewtonIters counts corrector iterations (BDF only).
	NewtonIters int
	// SparseFactorizations counts the factorizations that ran on the
	// sparse path (a subset of Factorizations).
	SparseFactorizations int
	// SparseDemotions counts sparse→dense degradations: after repeated
	// sparse refactorization failures the solver retires the sparse path
	// for the rest of its life and continues on dense LU.
	SparseDemotions int
	// JacNNZ and FillNNZ report the sparse path's structural nonzero
	// count and its L+U size including fill-in (0 on the dense path).
	JacNNZ, FillNNZ int
	// FactorOps and SolveOps accumulate the counted floating-point work
	// of the Newton linear algebra — dense: ⅔n³ per factorization and
	// 2n² per corrector solve; sparse: the pattern's actual multiply-add
	// counts. The estimator's deterministic work accounting reads these.
	FactorOps, SolveOps float64
}

// Add accumulates st into s, as across a file's retried solves: the work
// counters add, and the structural sizes JacNNZ and FillNNZ, which are
// per solve, keep the larger.
func (s *Stats) Add(st Stats) {
	s.Steps += st.Steps
	s.Rejected += st.Rejected
	s.FEvals += st.FEvals
	s.JEvals += st.JEvals
	s.Factorizations += st.Factorizations
	s.NewtonIters += st.NewtonIters
	s.SparseFactorizations += st.SparseFactorizations
	s.SparseDemotions += st.SparseDemotions
	s.FactorOps += st.FactorOps
	s.SolveOps += st.SolveOps
	s.JacNNZ = max(s.JacNNZ, st.JacNNZ)
	s.FillNNZ = max(s.FillNNZ, st.FillNNZ)
}

// ErrStepTooSmall reports step-size underflow (usually an unstable or
// inconsistent problem, or tolerances beyond reach).
var ErrStepTooSmall = errors.New("ode: step size underflow")

// ErrTooManySteps reports exceeding Options.MaxSteps.
var ErrTooManySteps = errors.New("ode: too many steps")

// errWrap annotates solver errors with the time reached.
func errWrap(err error, t float64) error {
	return fmt.Errorf("%w (at t=%g)", err, t)
}

// reached reports whether t has arrived at t1 (in direction dir) up to a
// few ulps — integrating the sub-ulp remainder would make no progress and
// spin the step loop.
func reached(t, t1, dir float64) bool {
	if (t-t1)*dir >= 0 {
		return true
	}
	tol := 4 * 2.220446049250313e-16 * math.Max(math.Abs(t), math.Abs(t1))
	return math.Abs(t1-t) <= tol
}

// weightedNorm is the standard mixed-tolerance RMS norm used for error
// control: ||e|| = sqrt(mean((e_i / (atol + rtol*max(|y_i|, |ynew_i|)))^2)).
// The builtin max inlines where math.Max is a call. The two agree on ±0
// and on NaN except for one pair: max(+Inf, NaN) is NaN, math.Max's is
// +Inf. A component pair holding both arises only in a solve that has
// already blown up, and in the BDF error test its e_i is NaN (the
// corrector or the predictor is NaN), so the norm is NaN either way.
func weightedNorm(err, y, ynew []float64, atol, rtol float64) float64 {
	y, ynew = y[:len(err)], ynew[:len(err)]
	s := 0.0
	for i, v := range err {
		sc := atol + rtol*max(math.Abs(y[i]), math.Abs(ynew[i]))
		e := v / sc
		s += e * e
	}
	return math.Sqrt(s / float64(len(err)))
}

// weightedNormAt is weightedNorm with y and ynew the same vector, as in
// the Newton convergence test: max(|y_i|, |y_i|) is |y_i|, NaN included,
// so it returns the same bits from one load per component.
func weightedNormAt(err, y []float64, atol, rtol float64) float64 {
	y = y[:len(err)]
	s := 0.0
	for i, v := range err {
		sc := atol + rtol*math.Abs(y[i])
		e := v / sc
		s += e * e
	}
	return math.Sqrt(s / float64(len(err)))
}
