// The v2 scheduler path of the parallel objective (Config.Sched,
// package sched, docs/load-balancing.md): plans are per-rank lists of
// items — record sub-ranges of data files — drained by work-stealing
// lanes, measured per item, and re-planned between objective calls from
// a persistent EWMA cost model.
//
// Numerical invariant: residual accumulation is order-independent. Each
// rank writes every item's contribution into a per-(file, record)
// buffer — one writer per entry, across all ranks, lanes and steals —
// the buffers are AllReduce-summed exactly, and the caller folds them
// in ascending file order: precisely the addition sequence of the
// serial single-rank path. Fits are therefore bit-identical to serial
// for ANY schedule the planner or the thieves produce; the conformance
// stage "sched" holds the whole path to exact equality.

package estimator

import (
	"fmt"
	"math"
	"sync"
	"time"

	"rms/internal/budget"
	"rms/internal/codegen"
	"rms/internal/mpi"
	"rms/internal/ode"
	"rms/internal/sched"
)

// SchedStats counts the v2 scheduler's decisions, accumulated across
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

// schedEnabled reports whether objective calls take the v2 scheduler path.
func (e *Estimator) schedEnabled() bool { return e.cost != nil }

// The ewma→lpt demotion fires after schedMispredictLimit consecutive
// calls whose mean relative cost-model error exceeds schedMispredictRel.
const (
	schedMispredictRel   = 0.5
	schedMispredictLimit = 3
)

// SchedStats returns the accumulated v2 scheduler decision counts.
func (e *Estimator) SchedStats() SchedStats { return e.schedStats }

// Plans returns a copy of the current per-rank item plans (nil without
// an active v2 scheduler).
func (e *Estimator) Plans() [][]sched.Item {
	if e.plans == nil {
		return nil
	}
	out := make([][]sched.Item, len(e.plans))
	for r := range e.plans {
		out[r] = append([]sched.Item(nil), e.plans[r]...)
	}
	return out
}

// CostPredictions returns the cost model's current per-file predictions
// in op units (nil without an active v2 scheduler).
func (e *Estimator) CostPredictions() []float64 {
	if e.cost == nil {
		return nil
	}
	return e.cost.Predictions()
}

// objectiveSched is Objective on the v2 scheduler path. The recovery
// loop mirrors the v1 path: under FaultTolerant, rank failures shrink
// the communicator and the call re-runs on a fresh plan for the
// survivors.
func (e *Estimator) objectiveSched(k, residual []float64, start time.Time) error {
	m := len(residual)
	nf := len(e.files)
	plans := e.plans
	ranks := e.cfg.Ranks
	var contrib, globalTime, successTime, itemOps []float64
	for {
		co, gt, gs, io, rep, solveErr := e.runCallSched(k, plans, ranks, m, nf)
		for _, st := range rep.States {
			e.met.mpiWaitSec.Add(float64(st.WaitNs) / 1e9)
		}
		if solveErr != nil {
			return solveErr
		}
		if rep.OK() {
			contrib, globalTime, successTime, itemOps = co, gt, gs, io
			break
		}
		if budget.Exhausted(rep.Err()) {
			// The budget released the ranks — cancellation, not a failure.
			return rep.Err()
		}
		if !e.cfg.FaultTolerant {
			return fmt.Errorf("estimator: parallel objective failed: %w", rep.Err())
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
		// Shrink and retry: re-plan the survivors on the model's current
		// predictions (the best cost estimate available mid-call).
		ranks -= len(dead)
		plans, _ = sched.Plan(e.cost.Predictions(), e.nrecs, ranks, e.schedCfg)
		e.lane.Instant(fmt.Sprintf("rank recovery (shrink to %d)", ranks))
		e.log.Warn("recovery", "rank recovery: shrink and re-plan",
			"call", e.calls, "dead", len(dead), "ranks", ranks,
			"watchdog", fmt.Sprint(rep.WatchdogFired))
	}
	if err := e.cfg.Budget.Check(); err != nil {
		// Tripped after the last collective completed: ranks may have
		// stopped claiming items mid-plan, so the reduction cannot be
		// trusted as complete — honor the cancellation.
		return err
	}

	// Order-independent reduction: fold the exactly-summed per-file
	// contribution buffers in ascending file order — the serial path's
	// addition sequence, regardless of what the schedule looked like.
	for j := range residual {
		residual[j] = 0
	}
	for fi := 0; fi < nf; fi++ {
		block := contrib[fi*m : (fi+1)*m]
		for j := 0; j < e.nrecs[fi]; j++ {
			residual[j] += block[j]
		}
	}
	copy(e.lastTimes, globalTime)
	e.calls++
	e.wallSeconds += time.Since(start).Seconds()
	e.met.objectives.Inc()

	// Modeled parallel time: replay the executed plan under the virtual
	// clock with the measured per-item costs. Deterministic under CPU
	// oversubscription, faithful to the greedy steal discipline, and the
	// source of the steal counters (see SchedStats).
	costOf := func(it sched.Item) float64 { return itemOps[it.Seq] }
	worst, total := 0.0, 0.0
	steals := 0
	for _, plan := range plans {
		res := sched.Simulate(sched.LaneSplit(plan, e.schedCfg.Lanes), e.schedCfg.Steal, costOf)
		if res.Makespan > worst {
			worst = res.Makespan
		}
		steals += res.Steals
		for _, it := range plan {
			total += itemOps[it.Seq]
		}
	}
	e.modelOps += worst
	if mean := total / float64(len(plans)); mean > 0 {
		e.met.imbalance.Set(worst / mean)
	}
	e.schedStats.Steals += steals
	e.met.schedSteals.Add(int64(steals))

	// Feed the cost model from successful-attempt work only (a penalized
	// file reports zero, which Observe ignores), then re-plan per policy.
	relSum, relN := 0.0, 0
	for fi := 0; fi < nf; fi++ {
		rel, first := e.cost.Observe(fi, successTime[fi])
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
	splits := 0
	switch e.schedCfg.Policy {
	case sched.PolicyStatic:
		// Plans stay as computed from the seed; nothing to do.
		return nil
	case sched.PolicyLPT:
		// v1 parity: raw last-measured totals, no smoothing, no splits.
		e.plans, splits = sched.Plan(globalTime, e.nrecs, e.cfg.Ranks, e.schedCfg)
	default: // PolicyEWMA
		e.plans, splits = sched.Plan(e.cost.Predictions(), e.nrecs, e.cfg.Ranks, e.schedCfg)
	}
	e.schedStats.Splits += splits
	e.schedStats.Replans++
	e.met.schedSplits.Add(int64(splits))
	e.met.schedReplans.Inc()
	e.lane.Instant("rebalance (sched " + e.schedCfg.Policy.String() + ")")
	e.log.Debug("replan", "schedule recomputed",
		"call", e.calls, "policy", e.schedCfg.Policy.String(), "splits", splits)
	return nil
}

// runCallSched executes one parallel objective evaluation over per-rank
// item plans. It returns the exactly-reduced per-(file, record)
// contribution buffer (nf×m), per-file total work, per-file
// successful-attempt work (the cost model's food), per-item work
// (indexed by Item.Seq, for the virtual-clock replay), the mpi report,
// and the first solver error (non-nil only without FaultTolerant).
func (e *Estimator) runCallSched(k []float64, plans [][]sched.Item, ranks, m, nf int) (contribOut, globalTime, successTime, itemOps []float64, rep *mpi.RunReport, firstErr error) {
	nItems := 0
	for _, p := range plans {
		nItems += len(p)
	}
	contribOut = make([]float64, nf*m)
	globalTime = make([]float64, nf)
	successTime = make([]float64, nf)
	itemOps = make([]float64, nItems)
	var errMu sync.Mutex
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
		localItem := make([]float64, nItems)
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

		set := sched.NewStealSet(sched.LaneSplit(plans[rank], lanes), sc.Steal).
			WithBudget(e.cfg.Budget)
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
				// FT plans are whole-file items (splits forced off), so
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
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("estimator: file %s: %w", f.Name, err)
				}
				errMu.Unlock()
			}
			w := e.workOps(st) * slow
			localItem[it.Seq] = w
			localSucc[it.Seq] = w
			e.publishSolve(st)
		})

		// Per-item measurements fold into per-file arrays single-threaded
		// (items steal only between a rank's own lanes, never across
		// ranks, so this rank executed exactly its plan).
		localTime := make([]float64, nf)
		localSuccess := make([]float64, nf)
		for _, it := range plans[rank] {
			localTime[it.File] += localItem[it.Seq]
			localSuccess[it.File] += localSucc[it.Seq]
		}
		gc := c.AllReduce(contrib, mpi.SumOp)
		gt := c.AllReduce(localTime, mpi.SumOp)
		gs := c.AllReduce(localSuccess, mpi.SumOp)
		gi := c.AllReduce(localItem, mpi.SumOp)
		if rank == 0 {
			copy(contribOut, gc)
			copy(globalTime, gt)
			copy(successTime, gs)
			copy(itemOps, gi)
		}
		return nil
	})
	return contribOut, globalTime, successTime, itemOps, rep, firstErr
}
