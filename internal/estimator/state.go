// Checkpoint state for the estimator: everything the next objective
// call's behavior depends on beyond the optimizer's own {x, lambda,
// iteration} (which nlopt.CheckState carries). Restoring a State into a
// freshly-constructed estimator over the same model, files and config
// makes the resumed fit's remaining objective calls bit-identical to the
// uninterrupted run's — the contract the conformance "resume" stage
// holds across the block and sched schedules.

package estimator

import (
	"fmt"

	"rms/internal/sched"
)

// State is the JSON-serializable snapshot of an Estimator's mutable
// state. Slice fields are deep copies; the encoding is canonical for a
// given state (fixed field order, no maps), so checkpoint files hash
// stably.
type State struct {
	// Calls is the objective-call counter — the key every deterministic
	// fault schedule and the planner's call indexing hang off.
	Calls int `json:"calls"`
	// WallSeconds and ModelOps carry the accumulated accounting so a
	// resumed run's totals match the uninterrupted run's.
	WallSeconds float64 `json:"wall_seconds"`
	ModelOps    float64 `json:"model_ops"`
	// LastTimes are the most recent per-file solve costs (op units) —
	// the lpt policy's and the cost-model-free recovery's input.
	LastTimes []float64 `json:"last_times"`
	// Assignment is the legacy per-rank file assignment of checkpoints
	// written before plans replaced it. Restore reads it as whole-file
	// plans when Plans is absent; Snapshot never writes it.
	Assignment [][]int `json:"assignment,omitempty"`
	// Plans are the per-rank item plans for the next call. Cost and
	// SchedPolicy capture the scheduler's cost model and its *current*
	// policy, which the ewma→lpt demotion may have changed from the
	// configured one (both absent without Config.Sched).
	Plans       [][]sched.Item   `json:"plans,omitempty"`
	Cost        *sched.CostState `json:"cost,omitempty"`
	SchedPolicy string           `json:"sched_policy,omitempty"`
	SchedStats  SchedStats       `json:"sched_stats"`
	// Mispredicts is the ewma→lpt degradation-ladder latch.
	Mispredicts int `json:"mispredicts,omitempty"`
	// Recovery and Degrade carry the cumulative intervention ledgers.
	Recovery RecoveryStats `json:"recovery"`
	Degrade  DegradeStats  `json:"degrade"`
}

// Snapshot captures the estimator's complete mutable state. Call it only
// between objective calls (iteration boundaries) — never while a call is
// in flight.
func (e *Estimator) Snapshot() State {
	e.recMu.Lock()
	recovery, degrade := e.recovery, e.degrade
	e.recMu.Unlock()
	st := State{
		Calls:       e.calls,
		WallSeconds: e.wallSeconds,
		ModelOps:    e.modelOps,
		LastTimes:   append([]float64(nil), e.lastTimes...),
		Plans:       copyPlanItems(e.plans),
		SchedStats:  e.schedStats,
		Mispredicts: e.mispredicts,
		Recovery:    recovery,
		Degrade:     degrade,
	}
	if e.cost != nil {
		cs := e.cost.State()
		st.Cost = &cs
		st.SchedPolicy = e.schedCfg.Policy.String()
	}
	return st
}

// Restore overwrites the estimator's mutable state from a snapshot taken
// by a compatible estimator (same files and ranks; a cost model exactly
// when this one has one). A legacy snapshot — an assignment, no plans
// and no cost model — restores into any scheduler mode, its assignment
// becoming whole-file plans. Restore validates shapes and rejects
// incompatible snapshots; on error the estimator is unchanged.
func (e *Estimator) Restore(st State) error {
	nf := len(e.files)
	if len(st.LastTimes) != nf {
		return fmt.Errorf("estimator: snapshot has %d file times, estimator has %d files",
			len(st.LastTimes), nf)
	}
	plans := st.Plans
	legacy := plans == nil && st.Cost == nil
	if legacy {
		seq := 0
		plans = make([][]sched.Item, len(st.Assignment))
		for r, files := range st.Assignment {
			for _, fi := range files {
				if fi < 0 || fi >= nf {
					return fmt.Errorf("estimator: snapshot assigns unknown file %d", fi)
				}
				plans[r] = append(plans[r], sched.Item{File: fi, Hi: e.nrecs[fi], Cost: st.LastTimes[fi], Seq: seq})
				seq++
			}
		}
	}
	if !legacy && (e.cost != nil) != (st.Cost != nil) {
		return fmt.Errorf("estimator: snapshot scheduler mode mismatch (snapshot cost model=%v, estimator cost model=%v)",
			st.Cost != nil, e.cost != nil)
	}
	if len(plans) != e.cfg.Ranks {
		return fmt.Errorf("estimator: snapshot plans %d ranks, estimator has %d", len(plans), e.cfg.Ranks)
	}
	nItems := 0
	for _, plan := range plans {
		nItems += len(plan)
	}
	seen := make([]bool, nItems)
	for _, plan := range plans {
		for _, it := range plan {
			if it.File < 0 || it.File >= nf || it.Lo < 0 || it.Lo > it.Hi || it.Hi > e.nrecs[it.File] ||
				it.Seq < 0 || it.Seq >= nItems || seen[it.Seq] {
				return fmt.Errorf("estimator: snapshot plans an invalid item %+v", it)
			}
			seen[it.Seq] = true
		}
	}
	var pol sched.Policy
	if st.Cost != nil {
		if len(st.Cost.Pred) != nf {
			return fmt.Errorf("estimator: snapshot cost model covers %d files, estimator has %d",
				len(st.Cost.Pred), nf)
		}
		var err error
		if pol, err = sched.ParsePolicy(st.SchedPolicy); err != nil {
			return err
		}
	}
	e.calls = st.Calls
	e.wallSeconds = st.WallSeconds
	e.modelOps = st.ModelOps
	e.lastTimes = append([]float64(nil), st.LastTimes...)
	e.plans = copyPlanItems(plans)
	e.schedStats = st.SchedStats
	e.mispredicts = st.Mispredicts
	e.recMu.Lock()
	e.recovery = st.Recovery
	e.degrade = st.Degrade
	e.recMu.Unlock()
	if st.Cost != nil {
		e.cost = sched.CostModelFromState(*st.Cost)
		e.schedCfg.Policy = pol
		if pol != sched.PolicyEWMA {
			e.schedCfg.SplitShare = 0
		}
	}
	return nil
}

func copyPlanItems(in [][]sched.Item) [][]sched.Item {
	out := make([][]sched.Item, len(in))
	for i := range in {
		out[i] = append([]sched.Item(nil), in[i]...)
	}
	return out
}
