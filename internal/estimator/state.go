// Checkpoint state for the estimator: everything the next objective
// call's behavior depends on beyond the optimizer's own {x, lambda,
// iteration} (which nlopt.CheckState carries). Restoring a State into a
// freshly-constructed estimator over the same model, files and config
// makes the resumed fit's remaining objective calls bit-identical to the
// uninterrupted run's — the contract the conformance "resume" stage
// holds across the serial, sched and batched paths.

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
	// fault schedule and the v2 planner's call indexing hang off.
	Calls int `json:"calls"`
	// WallSeconds and ModelOps carry the accumulated accounting so a
	// resumed run's totals match the uninterrupted run's.
	WallSeconds float64 `json:"wall_seconds"`
	ModelOps    float64 `json:"model_ops"`
	// LastTimes are the most recent per-file solve costs (op units) —
	// the v1 load balancer's LPT input.
	LastTimes []float64 `json:"last_times"`
	// Assignment is the v1 per-rank file assignment for the next call.
	Assignment [][]int `json:"assignment"`
	// Cost, Plans and SchedPolicy capture the v2 scheduler (nil/empty
	// when it is not active). SchedPolicy is the *current* policy, which
	// the ewma→lpt demotion may have changed from the configured one.
	Cost        *sched.CostState `json:"cost,omitempty"`
	Plans       [][]sched.Item   `json:"plans,omitempty"`
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
		Assignment:  copyPlanInts(e.assignment),
		SchedStats:  e.schedStats,
		Mispredicts: e.mispredicts,
		Recovery:    recovery,
		Degrade:     degrade,
	}
	if e.schedEnabled() {
		cs := e.cost.State()
		st.Cost = &cs
		st.Plans = copyPlanItems(e.plans)
		st.SchedPolicy = e.schedCfg.Policy.String()
	}
	return st
}

// Restore overwrites the estimator's mutable state from a snapshot taken
// by a compatible estimator (same files, ranks and scheduler mode). It
// validates shapes and rejects incompatible snapshots; on error the
// estimator is unchanged.
func (e *Estimator) Restore(st State) error {
	nf := len(e.files)
	if len(st.LastTimes) != nf {
		return fmt.Errorf("estimator: snapshot has %d file times, estimator has %d files",
			len(st.LastTimes), nf)
	}
	for _, files := range st.Assignment {
		for _, fi := range files {
			if fi < 0 || fi >= nf {
				return fmt.Errorf("estimator: snapshot assigns unknown file %d", fi)
			}
		}
	}
	if e.schedEnabled() != (st.Cost != nil) {
		return fmt.Errorf("estimator: snapshot scheduler mode mismatch (snapshot sched=%v, estimator sched=%v)",
			st.Cost != nil, e.schedEnabled())
	}
	var pol sched.Policy
	if st.Cost != nil {
		if len(st.Cost.Pred) != nf {
			return fmt.Errorf("estimator: snapshot cost model covers %d files, estimator has %d",
				len(st.Cost.Pred), nf)
		}
		for _, plan := range st.Plans {
			for _, it := range plan {
				if it.File < 0 || it.File >= nf {
					return fmt.Errorf("estimator: snapshot plans unknown file %d", it.File)
				}
			}
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
	e.assignment = copyPlanInts(st.Assignment)
	e.schedStats = st.SchedStats
	e.mispredicts = st.Mispredicts
	e.recMu.Lock()
	e.recovery = st.Recovery
	e.degrade = st.Degrade
	e.recMu.Unlock()
	if st.Cost != nil {
		e.cost = sched.CostModelFromState(*st.Cost)
		e.plans = copyPlanItems(st.Plans)
		e.schedCfg.Policy = pol
		if pol != sched.PolicyEWMA {
			e.schedCfg.SplitShare = 0
		}
	}
	return nil
}

func copyPlanInts(in [][]int) [][]int {
	out := make([][]int, len(in))
	for i := range in {
		out[i] = append([]int(nil), in[i]...)
	}
	return out
}

func copyPlanItems(in [][]sched.Item) [][]sched.Item {
	out := make([][]sched.Item, len(in))
	for i := range in {
		out[i] = append([]sched.Item(nil), in[i]...)
	}
	return out
}
