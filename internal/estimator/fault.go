// Fault tolerance for the parallel objective: per-file solver retry and
// penalty policies, NaN/Inf guards on residual accumulation, and the
// ULFM-style shrink-and-retry recovery from rank failures. LM trial
// points routinely drive the stiff solver into step underflow; treating
// those breakdowns (and rank deaths) as expected, recoverable events —
// the posture of production chemistry-LB systems such as DLBFoam —
// keeps one bad trial point or one lost worker from aborting a fit.

package estimator

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rms/internal/budget"
	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/faults"
	"rms/internal/ode"
)

// FaultInjector is the estimator's injection seam (package faults
// implements it): it is consulted before attempt number `attempt`
// (0-based) of solving file `file` during objective call `call` on rank
// `rank`, and a non-nil return is treated exactly like the solver
// failing with that error. Implementations must be safe for concurrent
// use by all ranks.
type FaultInjector interface {
	FileSolve(call, rank, file, attempt int) error
}

// RetryPolicy shapes the per-file graceful-degradation policy of a
// fault-tolerant estimator. Zero fields take the documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds solve attempts per file per objective call,
	// including the first (default 3).
	MaxAttempts int
	// TolTighten multiplies RTol and ATol on each retry (default 0.1):
	// at extreme trial parameters a loosely-resolved trajectory drifts
	// off the slow manifold and blows up; tighter tolerances keep the
	// BDF corrector on it.
	TolTighten float64
	// StepShrink multiplies the initial step on each retry (default
	// 0.25), so a retry does not re-enter the transient with the same
	// too-optimistic first step that failed.
	StepShrink float64
	// Penalty is the residual contribution assigned to every record of
	// a file whose solve never succeeded (default 1e6) — large enough
	// that LM rejects the trial step and grows its damping, finite so
	// the normal equations stay well-defined.
	Penalty float64
	// MaxSteps caps solver steps per attempt (default 500000), the work
	// budget that keeps a pathological trial point from hanging a rank;
	// a tighter Options.MaxSteps in the model wins.
	MaxSteps int
	// AttemptTimeout, when positive, arms a wall-clock watchdog per solve
	// attempt: each attempt runs under a child budget (parented to
	// Config.Budget) with this deadline, so a wedged solver — or an
	// injected hang — is cut off and treated as a retryable timeout
	// instead of stalling its rank until the mpi watchdog fires. Zero
	// disables the per-attempt watchdog (the default: step caps already
	// bound ordinary attempts deterministically).
	AttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.TolTighten == 0 {
		p.TolTighten = 0.1
	}
	if p.StepShrink == 0 {
		p.StepShrink = 0.25
	}
	if p.Penalty == 0 {
		p.Penalty = 1e6
	}
	if p.MaxSteps == 0 {
		p.MaxSteps = 500_000
	}
	return p
}

// RecoveryStats counts the fault-tolerance machinery's interventions,
// accumulated across objective calls. Counts include work performed on
// runs that were later abandoned to a rank failure — they measure
// recovery overhead actually spent.
type RecoveryStats struct {
	// Retries counts solve attempts beyond each file's first.
	Retries int
	// PenalizedFiles counts file solves that exhausted their attempts
	// and fell back to the penalty residual.
	PenalizedFiles int
	// RankFailures counts ranks lost and recovered by re-planning.
	RankFailures int
	// WatchdogTrips counts objective calls aborted by the mpi hang
	// watchdog and recovered.
	WatchdogTrips int
	// RerunCalls counts objective calls re-executed on a shrunk
	// communicator after losing ranks.
	RerunCalls int
}

// Recovery returns the accumulated fault-recovery statistics.
func (e *Estimator) Recovery() RecoveryStats {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return e.recovery
}

// DegradeStats counts the graceful-degradation ladders' demotions,
// accumulated across objective calls. Each ladder trades capability for
// forward progress; the counters (mirrored in telemetry as degrade.*)
// are how a run reports which rungs it had to descend.
type DegradeStats struct {
	// SparseToDense counts BDF solves demoted from sparse LU to dense
	// LU after repeated sparse refactorization failures.
	SparseToDense int
	// SolveTimeouts counts solve attempts cut off by the per-attempt
	// watchdog (real deadline trips, injected hangs and injected
	// timeouts alike).
	SolveTimeouts int
}

// Degrade returns the accumulated degradation-ladder statistics.
func (e *Estimator) Degrade() DegradeStats {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return e.degrade
}

// noteTimeout records one per-attempt watchdog trip.
func (e *Estimator) noteTimeout(call, rank, fi int) {
	e.met.degradeTimeout.Inc()
	e.recMu.Lock()
	e.degrade.SolveTimeouts++
	e.recMu.Unlock()
	e.log.Warn("timeout", "solve attempt watchdog tripped",
		"call", call, "rank", rank, "file", fi)
}

// errNonFinite flags a solve whose residual contribution contains NaN or
// Inf — numerically as useless as a solver abort, and handled the same.
var errNonFinite = errors.New("estimator: non-finite residual contribution")

// retryable reports whether a solve failure is worth retrying at
// tightened tolerances: the solver's breakdown sentinels and non-finite
// output qualify; anything else (a structural error) goes straight to
// the penalty. A budget trip is neither retried nor penalized — the run
// is being cancelled, not the trial point rejected — so it is excluded
// here even though a tripped attempt deadline wraps ErrTooManySteps by
// the time it reaches this classifier.
func retryable(err error) bool {
	if budget.Exhausted(err) {
		return false
	}
	return errors.Is(err, ode.ErrStepTooSmall) ||
		errors.Is(err, ode.ErrTooManySteps) ||
		errors.Is(err, errNonFinite)
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// retryOpts derives attempt-specific solver options: attempt 0 is the
// model's own options under the per-attempt step budget; each retry
// tightens the tolerances and shrinks the initial step per the policy.
func (e *Estimator) retryOpts(f *dataset.File, attempt int) ode.Options {
	opts := e.model.SolverOpts
	pol := e.retry
	if opts.MaxSteps == 0 || opts.MaxSteps > pol.MaxSteps {
		opts.MaxSteps = pol.MaxSteps
	}
	if attempt == 0 {
		return opts
	}
	tighten := math.Pow(pol.TolTighten, float64(attempt))
	rtol, atol := opts.RTol, opts.ATol
	if rtol == 0 {
		rtol = 1e-6
	}
	if atol == 0 {
		atol = 1e-9
	}
	opts.RTol = math.Max(rtol*tighten, 1e-14)
	opts.ATol = math.Max(atol*tighten, 1e-15)
	base := opts.InitialStep
	if base == 0 {
		span := 0.0
		if n := f.NumRecords(); n > 0 {
			span = f.Records[n-1].T
		}
		if span > 0 {
			base = span / 100
		} else {
			base = 1e-3
		}
	}
	opts.InitialStep = base * math.Pow(pol.StepShrink, float64(attempt))
	return opts
}

// solveFileFT is solveFile under the retry/penalty policy. Each attempt
// integrates into scratch (so a half-failed attempt contributes
// nothing); success folds scratch into errvec, and exhausted or
// non-retryable failures fold in the penalty instead. It returns the
// accumulated solver work across attempts, the number of retries
// performed, and whether the file ended penalized.
//
// Cost-histogram publication happens here, keyed by attempt outcome:
// only the successful attempt's cost enters estimator.file_solve_ns,
// while every failed attempt's cost goes to estimator.file_retry_ns, so
// one bad LM trial point does not inflate a file's solve-cost
// distribution by up to MaxAttempts×.
func (e *Estimator) solveFileFT(ev *codegen.Evaluator, f *dataset.File, k []float64, scratch, errvec []float64, call, rank, fi int) (total ode.Stats, retries int, penalized bool) {
	pol := e.retry
	nr := f.NumRecords()
	for attempt := 0; ; attempt++ {
		var err error
		attempted := false
		var st ode.Stats
		// Each attempt runs under its own watchdog budget, chained to the
		// run budget: the attempt deadline cuts off a wedged solver without
		// ending the run, while a tripped run budget ends every attempt.
		ab := e.cfg.Budget
		if pol.AttemptTimeout > 0 {
			child := budget.New().WithParent(e.cfg.Budget).WithDeadline(pol.AttemptTimeout)
			defer child.Cancel("attempt done") // stop the deadline timer
			ab = child
		}
		if e.cfg.Faults != nil {
			err = e.cfg.Faults.FileSolve(call, rank, fi, attempt)
		}
		if errors.Is(err, faults.ErrInjectedHang) {
			// Park exactly as a wedged solver would look: blocked until the
			// attempt watchdog or the run budget trips. With neither armed
			// the attempt stays parked and the mpi hang watchdog takes over.
			select {
			case <-ab.Done():
			case <-e.cfg.Budget.Done():
			}
			err = ab.Err()
			if err == nil {
				err = e.cfg.Budget.Err()
			}
		}
		if err == nil {
			for i := 0; i < nr; i++ {
				scratch[i] = 0
			}
			attempted = true
			opts := e.retryOpts(f, attempt)
			opts.Budget = ab
			st, err = e.solveFile(ev, f, k, scratch, opts)
			addStats(&total, st)
			if err == nil && !finite(scratch[:nr]) {
				err = errNonFinite
			}
		}
		if err != nil && budget.Exhausted(err) {
			if e.cfg.Budget.Check() != nil {
				// Run-level cancellation: fold nothing, penalize nothing —
				// the caller's loop stops claiming files and the partial
				// residual is discarded with the aborted call.
				return total, attempt, false
			}
			// Attempt-level watchdog trip: a retryable timeout.
			e.noteTimeout(call, rank, fi)
			err = fmt.Errorf("estimator: solve attempt watchdog: %w", ode.ErrTooManySteps)
		} else if errors.Is(err, faults.ErrInjectedTimeout) {
			e.noteTimeout(call, rank, fi)
		}
		if err == nil {
			for i := 0; i < nr; i++ {
				errvec[i] += scratch[i]
			}
			e.met.solveNs.Observe(e.workOps(st) * e.secPerOp * 1e9)
			return total, attempt, false
		}
		if attempted {
			e.met.retryNs.Observe(e.workOps(st) * e.secPerOp * 1e9)
		}
		if attempt+1 >= pol.MaxAttempts || !retryable(err) {
			for i := 0; i < nr; i++ {
				errvec[i] += pol.Penalty
			}
			e.log.Warn("penalize", "file penalized: attempts exhausted or unretryable",
				"call", call, "rank", rank, "file", fi,
				"attempts", attempt+1, "err", err)
			return total, attempt, true
		}
		e.log.Info("retry", "solve retry at tightened tolerances",
			"call", call, "rank", rank, "file", fi, "attempt", attempt+1)
	}
}

// addStats accumulates solver work across retry attempts (the structural
// sparsity sizes are per-solve, not additive — keep the largest).
func addStats(dst *ode.Stats, st ode.Stats) {
	dst.Steps += st.Steps
	dst.Rejected += st.Rejected
	dst.FEvals += st.FEvals
	dst.JEvals += st.JEvals
	dst.Factorizations += st.Factorizations
	dst.NewtonIters += st.NewtonIters
	dst.SparseFactorizations += st.SparseFactorizations
	dst.FactorOps += st.FactorOps
	dst.SolveOps += st.SolveOps
	if st.JacNNZ > dst.JacNNZ {
		dst.JacNNZ = st.JacNNZ
	}
	if st.FillNNZ > dst.FillNNZ {
		dst.FillNNZ = st.FillNNZ
	}
}
