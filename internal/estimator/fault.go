// Failure handling for the parallel objective, the estimator's one
// failure path: a failed file solve is retried at tightened tolerances
// and, when its attempts run out, rejected — its records become NaN, and
// the optimizer's non-finite rules decide what that means (a rejected
// trial step, or nlopt.ErrNonFinite where no step can route around it).
// A lost rank is recovered ULFM-style by re-planning its files onto the
// survivors. LM trial points routinely drive the stiff solver into step
// underflow; treating those breakdowns (and rank deaths) as expected,
// recoverable events — the posture of production chemistry-LB systems
// such as DLBFoam — keeps one bad trial point or one lost worker from
// aborting a fit.

package estimator

import (
	"errors"
	"math"

	"rms/internal/budget"
	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/ode"
)

// The per-file retry policy.
const (
	// maxAttempts bounds solve attempts per file per objective call,
	// including the first.
	maxAttempts = 3
	// tolTighten multiplies RTol and ATol on each retry: at extreme trial
	// parameters a loosely-resolved trajectory drifts off the slow
	// manifold and blows up; tighter tolerances keep the BDF corrector on
	// it.
	tolTighten = 0.1
	// stepShrink multiplies the initial step on each retry, so a retry
	// does not re-enter the transient with the same too-optimistic first
	// step that failed.
	stepShrink = 0.25
	// maxSteps caps solver steps per attempt, the work budget that keeps
	// a pathological trial point from pinning a rank; a tighter
	// Options.MaxSteps in the model wins.
	maxSteps = 500_000
)

// RecoveryStats counts the failure path's interventions, accumulated
// across objective calls. Counts include work performed on runs that
// were later abandoned to a rank failure — they measure recovery
// overhead actually spent.
type RecoveryStats struct {
	// Retries counts solve attempts beyond each file's first.
	Retries int
	// PenalizedFiles counts file solves that exhausted their attempts
	// (or failed unretryably) and wrote NaN into their records.
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

// DegradeStats counts the graceful-degradation ladder's demotions,
// accumulated across objective calls. The ladder trades capability for
// forward progress; the counter (mirrored in telemetry as degrade.*) is
// how a run reports which rungs it had to descend. Checkpoints written
// before the per-attempt watchdog was retired also carry a SolveTimeouts
// key; decoding skips it.
type DegradeStats struct {
	// SparseToDense counts BDF solves demoted from sparse LU to dense
	// LU after repeated sparse refactorization failures.
	SparseToDense int
}

// Degrade returns the accumulated degradation-ladder statistics.
func (e *Estimator) Degrade() DegradeStats {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return e.degrade
}

// errNonFinite flags a solve whose residual contribution contains NaN or
// Inf — numerically as useless as a solver abort, and handled the same.
var errNonFinite = errors.New("estimator: non-finite residual contribution")

// retryable reports whether a solve failure is worth retrying at
// tightened tolerances: the solver's breakdown sentinels and non-finite
// output qualify; anything else (a structural error) is rejected at
// once.
func retryable(err error) bool {
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
// tightens the tolerances and shrinks the initial step.
func (e *Estimator) retryOpts(f *dataset.File, attempt int) ode.Options {
	opts := e.model.SolverOpts
	if opts.MaxSteps == 0 || opts.MaxSteps > maxSteps {
		opts.MaxSteps = maxSteps
	}
	if attempt == 0 {
		return opts
	}
	tighten := math.Pow(tolTighten, float64(attempt))
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
	opts.InitialStep = base * math.Pow(stepShrink, float64(attempt))
	return opts
}

// solveWithRetry is solveFile under the retry policy. Each attempt
// integrates into the file's own records of errvec, cleared first, so a
// half-failed attempt leaves nothing behind; exhausted or non-retryable
// failures write NaN into those records instead. It returns the
// accumulated solver work across attempts, the number of retries
// performed, and whether the file was rejected. A trip of the run budget
// is neither retried nor rejected — the run is being cancelled, not the
// trial point — and the caller's loop stops.
//
// Cost-histogram publication happens here, keyed by attempt outcome:
// only the successful attempt's cost enters estimator.file_solve_ops,
// while every failed attempt's cost goes to estimator.file_retry_ops, so
// one bad LM trial point does not inflate a file's solve-cost
// distribution by up to maxAttempts×.
func (e *Estimator) solveWithRetry(ev *codegen.Evaluator, jacEv *codegen.JacEvaluator, f *dataset.File, k []float64, errvec []float64, call, rank, fi int) (total ode.Stats, retries int, rejected bool) {
	recs := errvec[:f.NumRecords()]
	for attempt := 0; ; attempt++ {
		err := e.cfg.Faults.FileSolve(call, rank, fi, attempt)
		attempted := false
		var st ode.Stats
		if err == nil {
			clear(recs)
			attempted = true
			st, err = e.solveFile(ev, jacEv, f, k, recs, e.retryOpts(f, attempt))
			total.Add(st)
			if err == nil && !finite(recs) {
				err = errNonFinite
			}
		}
		if budget.Exhausted(err) && e.cfg.Budget.Check() != nil {
			return total, attempt, false
		}
		if err == nil {
			e.met.solveOps.Observe(e.workOps(st))
			return total, attempt, false
		}
		if attempted {
			e.met.retryOps.Observe(e.workOps(st))
		}
		if attempt+1 >= maxAttempts || !retryable(err) {
			for i := range recs {
				recs[i] = math.NaN()
			}
			e.log.Warn("penalize", "file penalized: attempts exhausted or unretryable",
				"call", call, "rank", rank, "file", fi,
				"attempts", attempt+1, "err", err)
			return total, attempt, true
		}
		e.log.Info("retry", "solve retry at tightened tolerances",
			"call", call, "rank", rank, "file", fi, "attempt", attempt+1, "err", err)
	}
}
