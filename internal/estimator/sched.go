// The schedule of the parallel objective (Config.Policy, package sched,
// docs/load-balancing.md): plans are per-rank lists of whole data files,
// solved in plan order, measured per file, and — under the lpt policy —
// re-planned by LPT between objective calls.
//
// Numerical invariant: residual accumulation is order-independent. Each
// rank writes every file's contribution into a per-(file, record)
// buffer — one writer per entry, across all ranks — the buffers are
// AllReduce-summed exactly, and Objective folds them in ascending file
// order: precisely the addition sequence of the serial single-rank path.
// Fits are therefore bit-identical to serial for any plan; the
// conformance stage "estimator" holds the path to exact equality.

package estimator

import (
	"rms/internal/codegen"
	"rms/internal/mpi"
	"rms/internal/sched"
)

// SchedStats counts the load balancer's decisions, accumulated across
// objective calls.
type SchedStats struct {
	// Replans counts re-planning decisions of the lpt policy.
	Replans int
}

// SchedStats returns the accumulated load-balancer decision counts.
func (e *Estimator) SchedStats() SchedStats { return e.schedStats }

// Plans returns a copy of the per-rank file plans for the next call.
func (e *Estimator) Plans() [][]sched.Item { return copyPlanItems(e.plans) }

// callResult is one objective call's exactly-reduced output: the
// per-(file, record) contribution buffer (nf×m) and the per-file solve
// work in op units.
type callResult struct {
	contrib, fileOps []float64
}

// account charges one finished call's modeled parallel time: the
// largest per-rank sum of the measured per-file costs over the plans
// the call ran.
func (e *Estimator) account(plans [][]sched.Item, out callResult) {
	worst := sched.MakespanItems(plans, out.fileOps)
	total := 0.0
	for _, plan := range plans {
		for _, it := range plan {
			total += out.fileOps[it.File]
		}
	}
	e.modelOps += worst
	if mean := total / float64(len(plans)); mean > 0 {
		e.met.imbalance.Set(worst / mean)
	}
}

// replan re-plans the next call by LPT over the costs the call just
// measured, under the lpt policy; the block and static plans stand.
func (e *Estimator) replan(out callResult) {
	if e.cfg.Policy != sched.PolicyLPT {
		return
	}
	e.plans = sched.LPT(out.fileOps, e.cfg.Ranks)
	e.schedStats.Replans++
	e.met.schedReplans.Inc()
	e.lane.Instant("rebalance (lpt)")
	e.log.Debug("replan", "schedule recomputed", "call", e.calls)
}

// runCallSched executes one parallel objective evaluation over per-rank
// file plans on the given number of ranks. It returns the reduced call
// output and the mpi report; every file solve runs under the retry
// policy, so a failed solve never fails the rank.
func (e *Estimator) runCallSched(k []float64, plans [][]sched.Item, ranks, m int) (callResult, *mpi.RunReport) {
	nf := len(e.files)
	var contribOut, workOut []float64
	call := e.calls
	cfg := mpi.RunConfig{Watchdog: e.cfg.Watchdog, Trace: e.cfg.Trace,
		Budget: e.cfg.Budget, Log: e.mpiLog}
	if e.cfg.Faults != nil {
		cfg.Hook = e.cfg.Faults
	}
	rep := mpi.RunErr(ranks, cfg, func(c *mpi.Comm) error {
		rank := c.Rank()
		// One contribution buffer per rank; every (file, record) entry is
		// written by exactly one file solve on exactly one rank, so the
		// AllReduce sum below is exact (0 + x = x in floating point).
		contrib := make([]float64, nf*m)
		work := make([]float64, nf)
		ev := e.model.Prog.NewEvaluator()
		ev.Observe(e.cfg.Metrics)
		// One Jacobian evaluator serves every file solve of the rank:
		// each evaluation rewrites every slot of the per-evaluation code
		// and the prelude reruns whenever k changes, so it returns the
		// bits a fresh evaluator would.
		var jacEv *codegen.JacEvaluator
		if e.model.AnalyticJac != nil {
			jacEv = e.model.AnalyticJac.NewEvaluator()
		}
		lane := c.Lane()
		for _, it := range plans[rank] {
			if e.cfg.Budget.Check() != nil {
				break
			}
			f := e.files[it.File]
			block := contrib[it.File*m : (it.File+1)*m]
			e.log.Debug("solve", "file solve", "call", call, "rank", rank, "file", f.Name)
			lane.Begin("solve " + f.Name)
			st, retries, rejected := e.solveWithRetry(ev, jacEv, f, k, block, call, rank, it.File)
			work[it.File] = e.workOps(st)
			e.met.fileSolves.Inc()
			e.publishSolveStats(st)
			e.met.retries.Add(int64(retries))
			if retries > 0 || rejected {
				e.recMu.Lock()
				e.recovery.Retries += retries
				if rejected {
					e.recovery.PenalizedFiles++
					e.met.penalized.Inc()
				}
				e.recMu.Unlock()
			}
			lane.End()
		}
		gc := c.AllReduce(contrib)
		gw := c.AllReduce(work)
		if rank == 0 {
			contribOut, workOut = gc, gw
		}
		return nil
	})
	return callResult{contrib: contribOut, fileOps: workOut}, rep
}
