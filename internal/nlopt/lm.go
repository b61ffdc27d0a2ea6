// Package nlopt implements the non-linear optimizer of the paper's
// runtime: non-linear least squares with simple variable bounds, the
// analog of IMSL's imsl_f_bounded_least_squares. The method is a modified
// Levenberg–Marquardt iteration with an active-set treatment of the
// bounds, exactly the algorithm family the IMSL routine documents: at
// each step, variables pinned at a bound with an inward-pointing gradient
// stay fixed; the damped normal equations are solved over the free
// variables; trial points are projected back into the box.
//
// The parameter estimator uses it to fit kinetic rate constants — the
// chemist supplies lower and upper bounds consistent with quantum
// chemistry, and the optimizer finds the constants that best reproduce
// the experimental property curves.
package nlopt

import (
	"errors"
	"fmt"
	"math"

	"rms/internal/budget"
	"rms/internal/linalg"
)

// Residual evaluates the residual vector r(x); len(r) is the number of
// observations m, fixed across calls.
type Residual func(x, r []float64) error

// initialLambda seeds the damping parameter of a fresh fit.
const initialLambda = 1e-3

// Options tunes the optimizer; zero values select defaults.
type Options struct {
	// Tol is the convergence tolerance on the scaled step and the
	// projected gradient (default 1e-8).
	Tol float64
	// MaxIter bounds outer iterations (default 200).
	MaxIter int
	// RelStep scales the forward-difference Jacobian step (default
	// √machine-epsilon ≈ 1.5e-8). Raise it when the residual itself is
	// computed by an iterative solver whose truncation error would drown
	// a √ε perturbation — e.g. ODE solutions at loose tolerances.
	RelStep float64
	// KeepJacobian recomputes the residual Jacobian at the solution and
	// stores it (with the final residuals) in the Result, for the
	// statistical analysis step (package stats).
	KeepJacobian bool
	// Observer, when non-nil, receives one IterEvent after each outer
	// iteration — the damping, residual norm and trial accounting a live
	// fit monitor displays. The callback runs on the optimizer's
	// goroutine; keep it cheap.
	Observer func(IterEvent)
	// Budget, when non-nil, is checked at every outer-iteration boundary.
	// A tripped budget — or a Residual error caused by one (see
	// budget.Exhausted) — ends the fit cooperatively: the optimizer
	// returns BOTH a well-formed partial Result holding the best point
	// reached AND the budget's error, so callers can checkpoint the
	// partial fit before unwinding.
	Budget *budget.Budget
	// Checkpoint, when non-nil, is called at every outer-iteration
	// boundary with the exact state a Resume needs to reproduce the rest
	// of the fit bit-identically. It runs before the iteration's work (and
	// before the budget check), so the persisted state never lags a
	// cancellation. A Checkpoint error aborts the fit.
	Checkpoint func(CheckState) error
	// Resume, when non-nil, restarts the fit from a captured CheckState
	// instead of x0: the residuals are recomputed at the restored point
	// and iteration numbering continues from CheckState.Iter, so an
	// interrupted fit resumed from its last checkpoint finishes with
	// bit-identical parameters to the uninterrupted run.
	Resume *CheckState
}

// CheckState is the optimizer state at an outer-iteration boundary — the
// complete LM-side snapshot for checkpoint/resume. Residuals are excluded
// deliberately: r(x) is a pure function of x and is recomputed on resume,
// which keeps snapshots small and makes staleness impossible.
type CheckState struct {
	// Iter is the 0-based outer iteration about to run.
	Iter int `json:"iter"`
	// X is the current (best) point.
	X []float64 `json:"x"`
	// Lambda is the LM damping carried into iteration Iter.
	Lambda float64 `json:"lambda"`
	// RNorm is ‖r(X)‖₂, stored for diagnostics and sanity checks.
	RNorm float64 `json:"rnorm"`
}

// IterEvent is one outer Levenberg–Marquardt iteration's telemetry
// record.
type IterEvent struct {
	// Iter is the 1-based outer iteration number.
	Iter int
	// Lambda is the damping parameter after the iteration's trial loop.
	Lambda float64
	// RNorm is ‖r‖₂ after the iteration (unchanged when no trial was
	// accepted).
	RNorm float64
	// Improved reports whether some trial point was accepted.
	Improved bool
	// Trials counts the damped trial points evaluated; NonFiniteTrials
	// the subset whose residuals came back NaN/Inf (fault regions).
	Trials, NonFiniteTrials int
	// FreeVars is the number of variables off their bounds this
	// iteration.
	FreeVars int
}

// Result reports the optimization outcome.
type Result struct {
	// X is the best point found (always within bounds).
	X []float64
	// RNorm is ||r(X)||₂.
	RNorm float64
	// Iterations, FEvals and JEvals count the work done.
	Iterations, FEvals, JEvals int
	// Converged reports whether a convergence test fired (as opposed to
	// hitting MaxIter).
	Converged bool
	// Active[i] is true when variable i finished pinned at a bound.
	Active []bool
	// Residuals holds r(X) and Jacobian ∂r/∂x at X (KeepJacobian only).
	Residuals []float64
	Jacobian  *linalg.Matrix
}

// ErrBadBounds reports inconsistent or malformed bounds.
var ErrBadBounds = errors.New("nlopt: inconsistent bounds")

// ErrNonFinite reports a residual or Jacobian containing NaN or Inf
// where the algorithm cannot route around it (the starting point or a
// derivative column). Non-finite *trial* residuals are handled
// internally: the trial is treated as worse than the current point, so
// the damping grows and a shorter step is tried — NaN never reaches the
// normal equations.
var ErrNonFinite = errors.New("nlopt: non-finite residual")

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// BoundedLeastSquares minimizes ½‖r(x)‖² subject to lower ≤ x ≤ upper.
// m is the residual dimension.
func BoundedLeastSquares(f Residual, x0, lower, upper []float64, m int, opts Options) (*Result, error) {
	n := len(x0)
	if len(lower) != n || len(upper) != n {
		return nil, fmt.Errorf("%w: n=%d, len(lower)=%d, len(upper)=%d",
			ErrBadBounds, n, len(lower), len(upper))
	}
	for i := range lower {
		if lower[i] > upper[i] {
			return nil, fmt.Errorf("%w: lower[%d]=%g > upper[%d]=%g",
				ErrBadBounds, i, lower[i], i, upper[i])
		}
	}
	if m <= 0 {
		return nil, fmt.Errorf("nlopt: non-positive residual dimension %d", m)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 200
	}
	if opts.RelStep == 0 {
		opts.RelStep = 1.4901161193847656e-08
	}

	res := &Result{X: make([]float64, n), Active: make([]bool, n)}
	x := make([]float64, n)
	startIter := 0
	if opts.Resume != nil {
		if len(opts.Resume.X) != n {
			return nil, fmt.Errorf("nlopt: resume state has %d variables, want %d", len(opts.Resume.X), n)
		}
		copy(x, opts.Resume.X)
		startIter = opts.Resume.Iter
	} else {
		copy(x, x0)
	}
	clamp(x, lower, upper)

	r := make([]float64, m)
	rTrial := make([]float64, m)
	xTrial := make([]float64, n)
	grad := make([]float64, n)
	jac := linalg.NewMatrix(m, n)

	rNorm := 0.0
	lambda := initialLambda
	if opts.Resume != nil {
		lambda = opts.Resume.Lambda
	}

	// partial packages the best point reached so far together with the
	// interrupting error — the cooperative-cancellation contract: a budget
	// trip never discards converged-so-far work.
	partial := func(err error) (*Result, error) {
		copy(res.X, x)
		res.RNorm = rNorm
		for j := range x {
			res.Active[j] = (x[j] <= lower[j] && lower[j] == upper[j]) ||
				x[j] == lower[j] || x[j] == upper[j]
		}
		return res, err
	}

	if err := f(x, r); err != nil {
		if budget.Exhausted(err) {
			return partial(err)
		}
		return nil, fmt.Errorf("nlopt: residual at start: %w", err)
	}
	res.FEvals++
	if !allFinite(r) {
		return nil, fmt.Errorf("%w at the starting point", ErrNonFinite)
	}
	rNorm = linalg.Norm2(r)

	emit := func(improved bool, trials, nonFinite, freeVars int) {
		if opts.Observer != nil {
			opts.Observer(IterEvent{
				Iter: res.Iterations, Lambda: lambda, RNorm: rNorm,
				Improved: improved, Trials: trials,
				NonFiniteTrials: nonFinite, FreeVars: freeVars,
			})
		}
	}

	for iter := startIter; iter < opts.MaxIter; iter++ {
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint(CheckState{Iter: iter, X: append([]float64(nil), x...), Lambda: lambda, RNorm: rNorm}); err != nil {
				return partial(fmt.Errorf("nlopt: checkpoint at iteration %d: %w", iter, err))
			}
		}
		if err := opts.Budget.Check(); err != nil {
			return partial(err)
		}
		res.Iterations = iter + 1
		if err := jacobian(f, x, r, lower, upper, jac, rTrial, xTrial, opts.RelStep); err != nil {
			if budget.Exhausted(err) {
				return partial(err)
			}
			return nil, fmt.Errorf("nlopt: jacobian at iteration %d: %w", iter, err)
		}
		res.JEvals++
		res.FEvals += n

		// grad = Jᵀ r
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += jac.At(i, j) * r[i]
			}
			grad[j] = s
		}

		// Active set: pinned at a bound with the gradient pushing outward.
		free := free(x, grad, lower, upper, res.Active)
		if len(free) == 0 {
			res.Converged = true
			emit(false, 0, 0, 0)
			break
		}
		// Projected-gradient convergence test.
		pg := 0.0
		for _, j := range free {
			if g := math.Abs(grad[j]); g > pg {
				pg = g
			}
		}
		if pg <= opts.Tol*math.Max(1, rNorm) {
			res.Converged = true
			emit(false, 0, 0, len(free))
			break
		}

		improved := false
		sawNonFinite := false
		trials, nonFiniteTrials := 0, 0
		for inner := 0; inner < 30; inner++ {
			delta, err := solveDamped(jac, r, grad, free, lambda)
			if err != nil {
				lambda *= 10
				continue
			}
			copy(xTrial, x)
			for fi, j := range free {
				xTrial[j] += delta[fi]
			}
			clamp(xTrial, lower, upper)
			if err := f(xTrial, rTrial); err != nil {
				if budget.Exhausted(err) {
					return partial(err)
				}
				return nil, fmt.Errorf("nlopt: residual at trial point: %w", err)
			}
			res.FEvals++
			trials++
			if !allFinite(rTrial) {
				// The trial point broke the residual computation (for ODE
				// objectives: the solver blew up there). Treat it as worse
				// than the current point — grow the damping toward a
				// shorter step — and keep NaN away from the accept test.
				sawNonFinite = true
				nonFiniteTrials++
				lambda *= 4
				if lambda > 1e12 {
					break
				}
				continue
			}
			tNorm := linalg.Norm2(rTrial)
			if tNorm < rNorm {
				// Accept.
				stepNorm := 0.0
				for j := 0; j < n; j++ {
					stepNorm += (xTrial[j] - x[j]) * (xTrial[j] - x[j])
				}
				stepNorm = math.Sqrt(stepNorm)
				copy(x, xTrial)
				copy(r, rTrial)
				relDrop := (rNorm - tNorm) / math.Max(rNorm, 1e-300)
				rNorm = tNorm
				lambda = math.Max(lambda/3, 1e-12)
				improved = true
				if stepNorm <= opts.Tol*(1+linalg.Norm2(x)) || relDrop < opts.Tol {
					res.Converged = true
				}
				break
			}
			lambda *= 4
			if lambda > 1e12 {
				break
			}
		}
		emit(improved, trials, nonFiniteTrials, len(free))
		if !improved || res.Converged {
			// A stall in a damped local minimum is convergence — unless the
			// stall came from non-finite trial residuals, which is a fault
			// region, not an optimum.
			if !improved && !sawNonFinite {
				res.Converged = true
			}
			break
		}
	}
	copy(res.X, x)
	res.RNorm = rNorm
	if opts.KeepJacobian {
		res.Residuals = append([]float64(nil), r...)
		res.Jacobian = linalg.NewMatrix(m, n)
		if err := jacobian(f, x, r, lower, upper, res.Jacobian, rTrial, xTrial, opts.RelStep); err != nil {
			if budget.Exhausted(err) {
				res.Jacobian = nil
				res.Residuals = nil
				return partial(err)
			}
			return nil, fmt.Errorf("nlopt: jacobian at solution: %w", err)
		}
		res.FEvals += n
	}
	// Final active-set report.
	for j := range x {
		res.Active[j] = (x[j] <= lower[j] && lower[j] == upper[j]) ||
			x[j] == lower[j] || x[j] == upper[j]
	}
	return res, nil
}

// jacobian fills jac with forward differences, stepping inward at bounds.
func jacobian(f Residual, x, r, lower, upper []float64, jac *linalg.Matrix, work, xw []float64, relStep float64) error {
	m, n := jac.Rows, jac.Cols
	copy(xw, x)
	for j := 0; j < n; j++ {
		d := relStep * math.Max(math.Abs(x[j]), 1)
		if x[j]+d > upper[j] {
			d = -d // step inward at the upper bound
		}
		if d == 0 {
			d = relStep
		}
		xw[j] = x[j] + d
		if err := f(xw, work); err != nil {
			return err
		}
		if !allFinite(work) {
			// A NaN derivative column would poison Jᵀ J and every
			// subsequent step; fail loudly instead.
			return fmt.Errorf("%w in derivative column %d", ErrNonFinite, j)
		}
		inv := 1 / d
		for i := 0; i < m; i++ {
			jac.Set(i, j, (work[i]-r[i])*inv)
		}
		xw[j] = x[j]
	}
	return nil
}

// free returns the indices allowed to move and records the active set.
func free(x, grad, lower, upper []float64, active []bool) []int {
	var out []int
	for j := range x {
		atLower := x[j] <= lower[j]
		atUpper := x[j] >= upper[j]
		pinned := (atLower && grad[j] > 0) || (atUpper && grad[j] < 0) || lower[j] == upper[j]
		active[j] = pinned
		if !pinned {
			out = append(out, j)
		}
	}
	return out
}

// solveDamped solves (JᵀJ + λ·diag(JᵀJ))δ = -Jᵀr over the free variables.
func solveDamped(jac *linalg.Matrix, r, grad []float64, free []int, lambda float64) ([]float64, error) {
	nf := len(free)
	a := linalg.NewMatrix(nf, nf)
	b := make([]float64, nf)
	m := jac.Rows
	for fi, j := range free {
		for fk := fi; fk < nf; fk++ {
			k := free[fk]
			s := 0.0
			for i := 0; i < m; i++ {
				s += jac.At(i, j) * jac.At(i, k)
			}
			a.Set(fi, fk, s)
			a.Set(fk, fi, s)
		}
		b[fi] = -grad[j]
	}
	diag := make([]float64, nf)
	for fi := 0; fi < nf; fi++ {
		d := a.At(fi, fi)
		if d == 0 {
			d = 1e-12
		}
		diag[fi] = d
		a.Set(fi, fi, d*(1+lambda))
	}
	if ch, err := a.Cholesky(); err == nil {
		return ch.Solve(b)
	}
	// The normal equations lost positive definiteness to rounding (a
	// nearly rank-deficient Jacobian). Solve the equivalent augmented
	// least-squares problem min ||[J; sqrt(lambda*diag)]*delta + [r; 0]||
	// by QR, which squares no condition numbers.
	return solveDampedQR(jac, r, free, diag, lambda)
}

// solveDampedQR is the QR path for ill-conditioned damped steps.
func solveDampedQR(jac *linalg.Matrix, r []float64, free []int, diag []float64, lambda float64) ([]float64, error) {
	m := jac.Rows
	nf := len(free)
	aug := linalg.NewMatrix(m+nf, nf)
	rhs := make([]float64, m+nf)
	for i := 0; i < m; i++ {
		for fi, j := range free {
			aug.Set(i, fi, jac.At(i, j))
		}
		rhs[i] = -r[i]
	}
	for fi := range free {
		aug.Set(m+fi, fi, math.Sqrt(lambda*diag[fi]))
	}
	qr, err := aug.QR()
	if err != nil {
		return nil, err
	}
	return qr.Solve(rhs)
}

func clamp(x, lower, upper []float64) {
	for i := range x {
		if x[i] < lower[i] {
			x[i] = lower[i]
		}
		if x[i] > upper[i] {
			x[i] = upper[i]
		}
	}
}
