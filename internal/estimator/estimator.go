// Package estimator is the Parallel Parameter Estimator: the runtime
// component that fits kinetic rate constants to experimental data by
// coupling the compiled ODE right-hand side with the stiff solver and the
// bounded non-linear least-squares optimizer, parallelized over data
// files in the style of the paper's Fig. 9 MPI objective function.
//
// Every objective evaluation runs one mpi.RunErr over the configured
// number of ranks: each rank solves the ODE system across the time grid
// of the data files its plan assigns it, writing each file's per-timestep
// differences between simulated and measured property values into a
// per-(file, record) buffer, and two AllReduce operations combine the
// buffers and the per-file solve costs. The caller folds the buffers in
// ascending file order, so the residual is bit-identical to the serial
// single-rank path for any plan. Between objective calls the load
// balancer (package sched, Config.Policy) may re-plan: the paper's
// dynamic load balancing algorithm orders solve times non-increasing (a
// priority queue) and gives each file to the rank with the least total
// allocated time so far (LPT scheduling), so the next call sees balanced
// work.
package estimator

import (
	"fmt"
	"math"
	"sync"
	"time"

	"rms/internal/budget"
	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/faults"
	"rms/internal/linalg"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/sched"
	"rms/internal/stats"
	"rms/internal/telemetry"
)

// Model couples a compiled kinetic system with the measured observable.
type Model struct {
	// Prog is the compiled ODE right-hand side, dy = f(y, k).
	Prog *codegen.Program
	// Y0 is the initial concentration vector.
	Y0 []float64
	// Property maps a concentration state to the measured property (for
	// vulcanization: the total crosslink concentration).
	Property func(y []float64) float64
	// SolverOpts tunes the Adams-Gear solver.
	SolverOpts ode.Options
	// AnalyticJac, when non-nil, supplies the compiled symbolic Jacobian;
	// the stiff solver then skips finite differencing entirely.
	AnalyticJac *codegen.JacobianProgram
	// SymbolicLU, when non-nil, is a prebuilt symbolic sparse
	// factorization of AnalyticJac.PatternCSR(); every solve forks it
	// instead of recomputing the ordering and fill analysis (see
	// ode.Options.SymbolicLU). The service layer's compiled-model cache
	// populates it so repeated fit requests amortize the symbolic phase.
	SymbolicLU *linalg.SparseLU
}

// Config shapes an estimator.
type Config struct {
	// Ranks is the number of simulated MPI processes (nodes in Table 2).
	Ranks int
	// Policy selects the load balancer (package sched,
	// docs/load-balancing.md). The zero value is Fig. 9's static
	// distribution: contiguous file blocks (BLOCK_SIZE()), never
	// re-planned. static plans call 0 by LPT over record counts and keeps
	// that plan; lpt does the same and then re-plans every call by LPT
	// over the last measured per-file costs (the paper's dynamic load
	// balancer). Every plan folds per-file contribution buffers in
	// ascending file order, so fits stay bit-identical to the serial path
	// for any policy.
	Policy sched.Policy
	// Faults, when non-nil, injects deterministic faults (package faults,
	// docs/fault-tolerance.md): per-file solve failures before each solve
	// attempt, and rank crashes and stalls at collective entries. An
	// injected fault takes the same path as a real one.
	Faults *faults.Plan
	// Watchdog arms the mpi hang watchdog for objective calls: a stuck
	// collective is aborted and recovered like a crashed rank. Zero
	// disables it.
	Watchdog time.Duration
	// Budget, when non-nil, makes every objective call cooperatively
	// cancellable: it is checked once per solver step and per planned
	// file, and its Done channel releases ranks blocked in collectives
	// (see mpi.RunConfig.Budget). A tripped budget makes Objective return
	// its error with the residual untouched — a budget trip is never
	// retried, rejected or recovered. Nil costs nothing.
	Budget *budget.Budget
	// Trace, when non-nil, records the estimator's timeline: one
	// "objective #N" span per call on an "estimator" lane, per-file solve
	// spans on each rank's lane (shared with the mpi runtime's collective
	// wait spans), and instant marks for rebalances and rank recoveries.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, publishes the estimator's accounting into
	// the registry: cumulative solver work, step-size and per-file
	// solve-cost histograms, the load-imbalance gauge, per-rank MPI wait
	// time and the fault-recovery counters. Nil costs nothing — every
	// metric degrades to a no-op.
	Metrics *telemetry.Registry
	// Log, when non-nil, records the estimator's fault/recovery
	// narrative — retries, rejected files (the penalize events), watchdog
	// trips, rank recoveries, sched replans — in the flight recorder (and
	// any attached sink). Per-step hot paths never log; nil costs nothing.
	Log *telemetry.Logger
}

// estMetrics bundles the estimator's registry handles; the zero value
// (all nil) is the disabled no-op state.
type estMetrics struct {
	objectives *telemetry.Counter
	fileSolves *telemetry.Counter
	solveOps   *telemetry.Histogram // successful-solve cost, op units
	retryOps   *telemetry.Histogram // cost of failed solve attempts, op units
	stepSize   *telemetry.Histogram // |h| of every adaptive step attempt
	solver     ode.StatsMetrics     // cumulative solver work
	imbalance  *telemetry.Gauge     // makespan / mean rank load, last call

	schedReplans *telemetry.Counter

	mpiWaitSec                       *telemetry.FloatCounter
	retries, penalized, rankFailures *telemetry.Counter
	watchdogTrips, rerunCalls        *telemetry.Counter

	// Degradation-ladder demotions (see DegradeStats).
	degradeSparse *telemetry.Counter
}

func newEstMetrics(reg *telemetry.Registry) estMetrics {
	return estMetrics{
		objectives:    reg.Counter("estimator.objective_calls"),
		fileSolves:    reg.Counter("estimator.file_solves"),
		solveOps:      reg.Histogram("estimator.file_solve_ops", nil),
		retryOps:      reg.Histogram("estimator.file_retry_ops", nil),
		schedReplans:  reg.Counter("sched.replans"),
		stepSize:      ode.StepSizeHistogram(reg),
		imbalance:     reg.Gauge("estimator.imbalance"),
		solver:        ode.NewStatsMetrics(reg),
		mpiWaitSec:    reg.FloatCounter("mpi.wait_seconds"),
		retries:       reg.Counter("faults.retries"),
		penalized:     reg.Counter("faults.penalized_files"),
		rankFailures:  reg.Counter("faults.rank_failures"),
		watchdogTrips: reg.Counter("faults.watchdog_trips"),
		rerunCalls:    reg.Counter("faults.rerun_calls"),
		degradeSparse: reg.Counter("degrade.sparse_to_dense"),
	}
}

// publishStats folds one file solve's work counters into the registry.
func (m *estMetrics) publishStats(st ode.Stats) {
	m.solver.Publish(st)
	m.degradeSparse.Add(int64(st.SparseDemotions))
}

// Estimator runs parallel objective evaluations and parameter fits.
type Estimator struct {
	model *Model
	files []*dataset.File
	cfg   Config

	// Schedule state: plans are the per-rank file plans for the next
	// call, nrecs the per-file record counts (the cost estimate before
	// the first call), and lastTimes[i] file i's most recent solve cost.
	plans      [][]sched.Item
	nrecs      []int
	lastTimes  []float64
	schedStats SchedStats

	// recovery counts failure-path interventions (recMu guards it and
	// degrade: ranks report retries, rejections and demotions
	// concurrently).
	recMu    sync.Mutex
	recovery RecoveryStats
	degrade  DegradeStats

	// met holds the registry handles (all nil without cfg.Metrics); lane
	// is the estimator's own telemetry timeline (nil without cfg.Trace);
	// log and mpiLog are the scoped event-log handles (nil without
	// cfg.Log — every call degrades to a no-op).
	met    estMetrics
	lane   *telemetry.Lane
	log    *telemetry.Logger
	mpiLog *telemetry.Logger

	// Accumulated across objective calls:
	calls       int
	wallSeconds float64
	modelOps    float64 // Σ per-call max-over-ranks of work, in op units

	// opsPerEval is one right-hand-side evaluation's cost in op units:
	// the tape's counted multiplies and adds plus load/store traffic.
	opsPerEval float64
}

// New builds an estimator over the given data files.
func New(model *Model, files []*dataset.File, cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("estimator: no data files")
	}
	if model.Prog == nil || model.Property == nil {
		return nil, fmt.Errorf("estimator: model needs a compiled program and a property function")
	}
	if len(model.Y0) != model.Prog.NumY {
		return nil, fmt.Errorf("estimator: Y0 length %d, program expects %d",
			len(model.Y0), model.Prog.NumY)
	}
	e := &Estimator{
		model:     model,
		files:     files,
		cfg:       cfg,
		nrecs:     make([]int, len(files)),
		lastTimes: make([]float64, len(files)),
	}
	m, a := model.Prog.CountOps()
	e.opsPerEval = float64(m + a + 2*model.Prog.NumY)
	e.met = newEstMetrics(cfg.Metrics) // nil registry → all-no-op handles
	e.lane = cfg.Trace.Lane("estimator")
	e.log = cfg.Log.Scope("estimator")
	e.mpiLog = cfg.Log.Scope("mpi")
	for i, f := range files {
		e.nrecs[i] = f.NumRecords()
	}
	if cfg.Policy == sched.PolicyBlock {
		e.plans = sched.Block(e.recordCosts(), cfg.Ranks)
	} else {
		e.plans = sched.LPT(e.recordCosts(), cfg.Ranks)
	}
	return e, nil
}

// Validate reports a config an estimator cannot honour; New runs it.
// Every combination of fields is supported, so only the rank count is
// checked.
func (c Config) Validate() error {
	if c.Ranks <= 0 {
		return fmt.Errorf("estimator: invalid rank count %d", c.Ranks)
	}
	return nil
}

// recordCosts returns the per-file record counts as costs: the static
// a-priori estimate, the only one that exists before the first call.
func (e *Estimator) recordCosts() []float64 {
	out := make([]float64, len(e.nrecs))
	for i, n := range e.nrecs {
		out[i] = float64(n)
	}
	return out
}

// Close is a no-op: the estimator holds nothing beyond memory. Callers
// may still defer it.
func (e *Estimator) Close() {}

// publishSolveStats publishes a solve's cumulative counters and folds
// any sparse→dense demotions it performed into the degradation ledger.
func (e *Estimator) publishSolveStats(st ode.Stats) {
	e.met.publishStats(st)
	if st.SparseDemotions > 0 {
		e.recMu.Lock()
		e.degrade.SparseToDense += st.SparseDemotions
		e.recMu.Unlock()
	}
}

// workOps converts solver statistics into a deterministic work count (op
// units): right-hand-side evaluations at the tape's cost plus the Newton
// linear algebra as the solver itself accounted it — dense ⅔n³/2n², or
// the sparse pattern's actual multiply-add counts when the BDF ran the
// sparse path (so the measured cost reflects the asymptotic win).
func (e *Estimator) workOps(st ode.Stats) float64 {
	return float64(st.FEvals)*e.opsPerEval + st.FactorOps + st.SolveOps
}

// ResidualDim returns the global error vector's length: the maximum
// record count across files (files contribute their own time steps; the
// AllReduce sums aligned entries, per Fig. 9).
func (e *Estimator) ResidualDim() int {
	m := 0
	for _, f := range e.files {
		if f.NumRecords() > m {
			m = f.NumRecords()
		}
	}
	return m
}

// Calls returns the number of objective evaluations so far.
func (e *Estimator) Calls() int { return e.calls }

// WallSeconds returns the accumulated wall-clock time inside objective
// evaluations.
func (e *Estimator) WallSeconds() float64 { return e.wallSeconds }

// ModeledOps returns the accumulated modeled parallel work in op units:
// per call, the maximum over ranks of the sum of that rank's file solve
// costs — what Table 2 measures when every rank owns a physical
// processor. It is deterministic across runs and rank counts, so speedup
// ratios computed from it carry no timing noise.
func (e *Estimator) ModeledOps() float64 { return e.modelOps }

// FileTimes returns the most recent per-file solve costs in op units
// (see workOps); the load balancer only needs their relative sizes.
func (e *Estimator) FileTimes() []float64 {
	return append([]float64(nil), e.lastTimes...)
}

// Objective evaluates the global error vector for one set of rate
// constants, in parallel over the configured ranks. residual must have
// length ResidualDim.
//
// A file whose solve fails is retried at tightened tolerances and, when
// its attempts run out, rejected: its records come back NaN, and the
// optimizer's non-finite rules decide (see solveWithRetry). A rank
// failure is recovered ULFM-style: the survivors re-plan every file
// through sched.LPT over the last measured per-file costs (record counts
// before the first call) and the call re-runs on the shrunk
// communicator. Recovery is per call — the next call sees the full rank
// count again (the simulated runtime respawns ranks each call).
func (e *Estimator) Objective(k []float64, residual []float64) error {
	m := e.ResidualDim()
	if len(residual) != m {
		return fmt.Errorf("estimator: residual length %d, want %d", len(residual), m)
	}
	if len(k) != e.model.Prog.NumK {
		return fmt.Errorf("estimator: %d rate constants, program expects %d",
			len(k), e.model.Prog.NumK)
	}
	if err := e.cfg.Budget.Check(); err != nil {
		return err
	}
	start := time.Now()
	if e.lane != nil {
		e.lane.Begin(fmt.Sprintf("objective #%d", e.calls))
		defer e.lane.End()
	}
	nf := len(e.files)
	plans := e.plans
	ranks := e.cfg.Ranks
	var out callResult
	for {
		res, rep := e.runCallSched(k, plans, ranks, m)
		for _, st := range rep.States {
			e.met.mpiWaitSec.Add(float64(st.WaitNs) / 1e9)
		}
		if rep.OK() {
			out = res
			break
		}
		if budget.Exhausted(rep.Err()) {
			// The budget released the ranks — cancellation, not a failure.
			return rep.Err()
		}
		dead := rep.Culprits()
		if len(dead) == 0 || len(dead) >= ranks {
			return fmt.Errorf("estimator: unrecoverable objective failure: %w", rep.Err())
		}
		e.recMu.Lock()
		if rep.WatchdogFired {
			e.recovery.WatchdogTrips++
			e.met.watchdogTrips.Inc()
		}
		e.recovery.RankFailures += len(dead)
		e.recovery.RerunCalls++
		e.recMu.Unlock()
		e.met.rankFailures.Add(int64(len(dead)))
		e.met.rerunCalls.Inc()
		// Shrink and retry on the best cost estimate available mid-call.
		ranks -= len(dead)
		costs := e.lastTimes
		if e.calls == 0 {
			costs = e.recordCosts()
		}
		plans = sched.LPT(costs, ranks)
		e.lane.Instant(fmt.Sprintf("rank recovery (shrink to %d)", ranks))
		e.log.Warn("recovery", "rank recovery: shrink and re-plan",
			"call", e.calls, "dead", len(dead), "ranks", ranks,
			"watchdog", fmt.Sprint(rep.WatchdogFired))
	}
	if err := e.cfg.Budget.Check(); err != nil {
		// Tripped after the last collective completed: ranks may have
		// stopped solving files mid-plan, so the reduction cannot be
		// trusted as complete — honor the cancellation.
		return err
	}

	// Order-independent reduction: fold the exactly-summed per-file
	// contribution buffers in ascending file order — the serial path's
	// addition sequence, regardless of what the schedule looked like.
	clear(residual)
	for fi := 0; fi < nf; fi++ {
		block := out.contrib[fi*m : (fi+1)*m]
		for j := 0; j < e.nrecs[fi]; j++ {
			residual[j] += block[j]
		}
	}
	copy(e.lastTimes, out.fileOps)
	e.calls++
	e.wallSeconds += time.Since(start).Seconds()
	e.met.objectives.Inc()
	e.account(plans, out)
	e.replan(out)
	return nil
}

// solveFile integrates the model across one file's time grid,
// accumulating simulated-minus-observed into errvec (per Fig. 9's inner
// loop: initialize the solver, then integrate record to record). opts
// are the solver options for this attempt (the retry policy tightens
// them between attempts); the solve runs under the run budget unless the
// model's options carry their own. ev evaluates the model's tape and
// jacEv, non-nil when the model has an analytic Jacobian, its Jacobian.
// It returns the solver work statistics, the per-file cost measure.
func (e *Estimator) solveFile(ev *codegen.Evaluator, jacEv *codegen.JacEvaluator, f *dataset.File, k []float64, errvec []float64, opts ode.Options) (ode.Stats, error) {
	if opts.Budget == nil {
		opts.Budget = e.cfg.Budget
	}
	n := e.model.Prog.NumY
	y := make([]float64, n)
	copy(y, e.model.Y0)
	opts.Observer = e.stepObserver(opts.Observer)
	rhs := func(_ float64, yy, dy []float64) {
		ev.Eval(yy, k, dy)
	}
	if jacEv != nil {
		opts.Jacobian = func(_ float64, yy []float64, dst *linalg.Matrix) {
			jacEv.Eval(yy, k, dst)
		}
		// Also offer the sparse path; the BDF solver picks it when the
		// pattern density clears its threshold (SolverOpts tunes it).
		opts.SparsePattern = e.model.AnalyticJac.PatternCSR()
		opts.SparseJacobian = func(_ float64, yy []float64, dst *linalg.CSR) {
			jacEv.EvalCSR(yy, k, dst)
		}
		opts.SymbolicLU = e.model.SymbolicLU
	}
	solver := ode.NewBDF(rhs, n, opts)
	t := 0.0
	for j, rec := range f.Records {
		if rec.T > t {
			if err := solver.Integrate(t, rec.T, y); err != nil {
				return solver.Stats(), err
			}
			t = rec.T
		}
		errvec[j] += e.model.Property(y) - rec.Value
	}
	return solver.Stats(), nil
}

// stepObserver feeds the per-step event stream into the step-size
// histogram when metrics are on, chaining prev (the model's own
// observer, possibly nil).
func (e *Estimator) stepObserver(prev ode.StepObserver) ode.StepObserver {
	if e.cfg.Metrics == nil {
		return prev
	}
	met := &e.met
	return func(sev ode.StepEvent) {
		met.stepSize.Observe(math.Abs(sev.H))
		if prev != nil {
			prev(sev)
		}
	}
}

// Estimate fits the rate constants within the chemist's bounds by
// non-linear least squares over the parallel objective.
func (e *Estimator) Estimate(initial, lower, upper []float64, opts nlopt.Options) (*nlopt.Result, error) {
	resid := func(x, r []float64) error {
		return e.Objective(x, r)
	}
	return nlopt.BoundedLeastSquares(resid, initial, lower, upper, e.ResidualDim(), opts)
}

// ObservedSums returns the per-timestep sums of the measured property
// across files — the observation vector aligned with the reduced
// residual, used by the statistical-analysis step.
func (e *Estimator) ObservedSums() []float64 {
	out := make([]float64, e.ResidualDim())
	for _, f := range e.files {
		for j, rec := range f.Records {
			out[j] += rec.Value
		}
	}
	return out
}

// Analyze runs the Fig. 1 statistical-analysis step on a completed fit
// (Estimate with nlopt.Options.KeepJacobian): goodness-of-fit over the
// reduced residual and asymptotic confidence intervals for the free rate
// constants.
func (e *Estimator) Analyze(fit *nlopt.Result) (stats.Fit, []stats.Interval, error) {
	if fit.Jacobian == nil || fit.Residuals == nil {
		return stats.Fit{}, nil, fmt.Errorf("estimator: Analyze needs a fit run with KeepJacobian")
	}
	freeCount := 0
	for _, pinned := range fit.Active {
		if !pinned {
			freeCount++
		}
	}
	good, err := stats.Goodness(fit.Residuals, e.ObservedSums(), freeCount)
	if err != nil {
		return stats.Fit{}, nil, err
	}
	ivs, err := stats.Confidence(fit.Jacobian, fit.Residuals, fit.X, fit.Active)
	if err != nil {
		return good, nil, err
	}
	return good, ivs, nil
}
