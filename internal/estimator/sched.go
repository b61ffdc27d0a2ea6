// The schedule of the parallel objective (Config.Sched, package sched,
// docs/load-balancing.md): plans are per-rank lists of items — whole
// data files or record sub-ranges of them — drained by lanes, measured
// per item, and re-planned between objective calls per the policy.
//
// Numerical invariant: residual accumulation is order-independent. Each
// rank writes every item's contribution into a per-(file, record)
// buffer — one writer per entry, across all ranks, lanes and steals —
// the buffers are AllReduce-summed exactly, and Objective folds them in
// ascending file order: precisely the addition sequence of the serial
// single-rank path. Fits are therefore bit-identical to serial for ANY
// schedule the planner or the thieves produce; the conformance stages
// "estimator" and "sched" hold the path to exact equality.

package estimator

import (
	"fmt"
	"math"
	"sync"

	"rms/internal/codegen"
	"rms/internal/mpi"
	"rms/internal/ode"
	"rms/internal/sched"
)

// SchedStats counts the scheduler's decisions, accumulated across
// objective calls. Steals are the deterministic virtual-clock replay's
// count (the modeled schedule — reproducible across runs), not the
// OS-timing-dependent count of the concurrent executor.
type SchedStats struct {
	// Steals counts items taken from another lane's deque.
	Steals int
	// Splits counts files split into record sub-ranges at plan time.
	Splits int
	// Replans counts cost-model-driven re-planning decisions.
	Replans int
}

// The ewma→lpt demotion fires after schedMispredictLimit consecutive
// calls whose mean relative cost-model error exceeds schedMispredictRel.
const (
	schedMispredictRel   = 0.5
	schedMispredictLimit = 3
)

// SchedStats returns the accumulated scheduler decision counts.
func (e *Estimator) SchedStats() SchedStats { return e.schedStats }

// Plans returns a copy of the per-rank item plans for the next call.
func (e *Estimator) Plans() [][]sched.Item { return copyPlanItems(e.plans) }

// CostPredictions returns the cost model's current per-file predictions
// in op units (nil without Config.Sched).
func (e *Estimator) CostPredictions() []float64 {
	if e.cost == nil {
		return nil
	}
	return e.cost.Predictions()
}

// callResult is one objective call's exactly-reduced output: the
// per-(file, record) contribution buffer (nf×m), per-file total work,
// per-file successful-attempt work (the cost model's food), and per-item
// work indexed by Item.Seq (for the virtual-clock replay).
type callResult struct {
	contrib, fileOps, successOps, itemOps []float64
}

// account charges one finished call's modeled parallel time: it replays
// the executed plans under the virtual clock with the measured per-item
// costs. Deterministic under CPU oversubscription, faithful to the
// greedy steal discipline, and the source of the steal counters (see
// SchedStats).
func (e *Estimator) account(plans [][]sched.Item, out callResult) {
	costOf := func(it sched.Item) float64 { return out.itemOps[it.Seq] }
	worst, total := 0.0, 0.0
	steals := 0
	for _, plan := range plans {
		res := sched.Simulate(sched.LaneSplit(plan, e.schedCfg.Lanes), e.schedCfg.Steal, costOf)
		if res.Makespan > worst {
			worst = res.Makespan
		}
		steals += res.Steals
		for _, it := range plan {
			total += out.itemOps[it.Seq]
		}
	}
	e.modelOps += worst
	if mean := total / float64(len(plans)); mean > 0 {
		e.met.imbalance.Set(worst / mean)
	}
	e.schedStats.Steals += steals
	e.met.schedSteals.Add(int64(steals))
}

// replan feeds the cost model from successful-attempt work only (a
// penalized file reports zero, which Observe ignores) and re-plans the
// next call per policy. Without Config.Sched the block plan stands.
func (e *Estimator) replan(out callResult) {
	if e.cost == nil {
		return
	}
	relSum, relN := 0.0, 0
	for fi, w := range out.successOps {
		rel, first := e.cost.Observe(fi, w)
		if !first && !math.IsNaN(rel) {
			e.met.costErr.Observe(rel)
			relSum += rel
			relN++
		}
	}
	// The ewma→lpt rung: when the EWMA's predictions stay badly wrong for
	// several consecutive calls (injected slow-lane jitter, or genuinely
	// erratic per-call costs), smoothing is hurting the plan — demote to
	// plain LPT over raw last-measured costs, permanently.
	if e.schedCfg.Policy == sched.PolicyEWMA && relN > 0 {
		if relSum/float64(relN) > schedMispredictRel {
			e.mispredicts++
		} else {
			e.mispredicts = 0
		}
		if e.mispredicts >= schedMispredictLimit {
			e.schedCfg.Policy = sched.PolicyLPT
			e.schedCfg.SplitShare = 0 // LPT is a file-granularity policy
			e.met.degradeSched.Inc()
			e.recMu.Lock()
			e.degrade.SchedStatic++
			e.recMu.Unlock()
			e.lane.Instant("degrade: sched ewma → lpt")
			e.log.Warn("degrade", "sched cost model demoted: ewma → lpt",
				"call", e.calls, "mispredicts", e.mispredicts)
		}
	}
	var costs []float64
	switch e.schedCfg.Policy {
	case sched.PolicyStatic:
		return // plans stay as computed from the seed
	case sched.PolicyLPT:
		costs = out.fileOps // raw last-measured totals, no smoothing
	default: // PolicyEWMA
		costs = e.cost.Predictions()
	}
	var splits int
	e.plans, splits = sched.Plan(costs, e.nrecs, e.cfg.Ranks, e.schedCfg)
	e.schedStats.Splits += splits
	e.schedStats.Replans++
	e.met.schedSplits.Add(int64(splits))
	e.met.schedReplans.Inc()
	e.lane.Instant("rebalance (sched " + e.schedCfg.Policy.String() + ")")
	e.log.Debug("replan", "schedule recomputed",
		"call", e.calls, "policy", e.schedCfg.Policy.String(), "splits", splits)
}

// runCallSched executes one parallel objective evaluation over per-rank
// item plans on the given number of ranks. It returns the reduced call
// output, the mpi report, and the first solver error (non-nil only
// without FaultTolerant, which handles solves in-rank).
func (e *Estimator) runCallSched(k []float64, plans [][]sched.Item, ranks, m int) (out callResult, rep *mpi.RunReport, firstErr error) {
	nf := len(e.files)
	nItems := 0
	for _, p := range plans {
		nItems += len(p)
	}
	var contribOut, workOut []float64
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	call := e.calls
	sc := e.schedCfg
	cfg := mpi.RunConfig{Watchdog: e.cfg.Watchdog, Hook: e.cfg.Hook, Trace: e.cfg.Trace,
		Budget: e.cfg.Budget, Log: e.mpiLog}
	rep = mpi.RunErr(ranks, cfg, func(c *mpi.Comm) error {
		rank := c.Rank()
		// One contribution buffer per rank; every (file, record) entry is
		// written by exactly one item on exactly one rank, so the
		// AllReduce sum below is exact (0 + x = x in floating point).
		contrib := make([]float64, nf*m)
		// work packs this rank's per-file total work, per-file successful
		// work and per-item work into one reduction: [nf | nf | nItems].
		work := make([]float64, 2*nf+nItems)
		localItem := work[2*nf:]
		localSucc := make([]float64, nItems)
		lanes := sc.Lanes
		// Per-lane evaluators, each primed for k before any item runs:
		// whether a lane ends up running an item depends on goroutine
		// timing under work stealing, so priming every lane keeps the
		// prelude-run count a function of the plan.
		evs := make([]*codegen.Evaluator, lanes)
		for l := range evs {
			evs[l] = e.model.Prog.NewEvaluator()
			evs[l].Observe(e.cfg.Metrics)
			evs[l].Prime(k)
		}
		var scratch [][]float64
		if e.cfg.FaultTolerant {
			scratch = make([][]float64, lanes)
			for l := range scratch {
				scratch[l] = make([]float64, m)
			}
		}
		lane := c.Lane()
		useLane := lane != nil && lanes == 1 // spans can't interleave across lanes

		set := sched.NewStealSet(sched.LaneSplit(plans[rank], lanes), sc.Steal).WithBudget(e.cfg.Budget)
		set.Run(func(laneIdx int, it sched.Item, victim int) {
			f := e.files[it.File]
			block := contrib[it.File*m : (it.File+1)*m]
			ev := evs[laneIdx]
			// Injected lane slowdowns inflate the cost the item's lane
			// *reports* — exactly how a chronically slow worker looks to
			// the cost model and the virtual-clock replay. They are keyed
			// by the lane the plan assigned (the victim, for a stolen
			// item), not the lane that ran it: which lane steals depends
			// on goroutine timing, so the fault schedule must follow the
			// plan, not the race.
			planned := laneIdx
			if victim >= 0 {
				planned = victim
			}
			slow := e.laneSlowdown(call, rank, planned)
			e.log.Debug("solve", "file solve",
				"call", call, "rank", rank, "file", f.Name,
				"lo", it.Lo, "hi", it.Hi)
			if useLane {
				lane.Begin("solve " + f.Name)
				defer lane.End()
			}
			if e.cfg.FaultTolerant {
				// FT plans are whole-file items (New rejects splits), so
				// the retry/penalty fold covers exactly this block.
				st, succ, retries, penalized := e.solveFileFT(ev, f, k, scratch[laneIdx], block, call, rank, it.File)
				localItem[it.Seq] = e.workOps(st) * slow
				localSucc[it.Seq] = e.workOps(succ) * slow
				e.met.fileSolves.Inc()
				e.publishSolveStats(st)
				e.met.retries.Add(int64(retries))
				if retries > 0 || penalized {
					e.recMu.Lock()
					e.recovery.Retries += retries
					if penalized {
						e.recovery.PenalizedFiles++
						e.met.penalized.Inc()
					}
					e.recMu.Unlock()
				}
				return
			}
			var st ode.Stats
			err := error(nil)
			if e.cfg.Faults != nil {
				err = e.cfg.Faults.FileSolve(call, rank, it.File, 0)
			}
			if err == nil {
				st, err = e.solveFileRange(ev, f, k, block, e.model.SolverOpts, it.Lo, it.Hi)
			}
			if err != nil {
				fail(fmt.Errorf("estimator: file %s: %w", f.Name, err))
			}
			localItem[it.Seq] = e.workOps(st) * slow
			localSucc[it.Seq] = localItem[it.Seq]
			e.publishSolve(st)
		})

		// Per-item measurements fold into per-file arrays single-threaded
		// (items steal only between a rank's own lanes, never across
		// ranks, so this rank executed exactly its plan).
		for _, it := range plans[rank] {
			work[it.File] += localItem[it.Seq]
			work[nf+it.File] += localSucc[it.Seq]
		}
		gc := c.AllReduce(contrib, mpi.SumOp)
		gw := c.AllReduce(work, mpi.SumOp)
		if rank == 0 {
			contribOut, workOut = gc, gw
		}
		return nil
	})
	if workOut == nil {
		return callResult{}, rep, firstErr
	}
	return callResult{
		contrib:    contribOut,
		fileOps:    workOut[:nf],
		successOps: workOut[nf : 2*nf],
		itemOps:    workOut[2*nf:],
	}, rep, firstErr
}
