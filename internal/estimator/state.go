// Checkpoint state for the estimator: everything the next objective
// call's behavior depends on beyond the optimizer's own {x, lambda,
// iteration} (which nlopt.CheckState carries). Restoring a State into a
// freshly-constructed estimator over the same model, files and config
// makes the resumed fit's remaining objective calls bit-identical to the
// uninterrupted run's — the contract the conformance "resume" stage
// holds on the block and lpt plans.

package estimator

import (
	"fmt"

	"rms/internal/sched"
)

// State is the JSON-serializable snapshot of an Estimator's mutable
// state. Slice fields are deep copies; the encoding is canonical for a
// given state (fixed field order, no maps), so checkpoint files hash
// stably. Checkpoints written before the EWMA cost model, record-range
// splits and work-stealing lanes were retired also carry cost,
// sched_policy and mispredicts keys and per-item Lo, Hi and Seq fields;
// decoding skips them.
type State struct {
	// Calls is the objective-call counter — the key every deterministic
	// fault schedule and the planner's call indexing hang off.
	Calls int `json:"calls"`
	// WallSeconds and ModelOps carry the accumulated accounting so a
	// resumed run's totals match the uninterrupted run's.
	WallSeconds float64 `json:"wall_seconds"`
	ModelOps    float64 `json:"model_ops"`
	// LastTimes are the most recent per-file solve costs (op units) —
	// the lpt policy's and rank recovery's input.
	LastTimes []float64 `json:"last_times"`
	// Assignment is the legacy per-rank file assignment of checkpoints
	// written before plans replaced it. Restore reads it as plans when
	// Plans is absent; Snapshot never writes it.
	Assignment [][]int `json:"assignment,omitempty"`
	// Plans are the per-rank file plans for the next call.
	Plans      [][]sched.Item `json:"plans,omitempty"`
	SchedStats SchedStats     `json:"sched_stats"`
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
	return State{
		Calls:       e.calls,
		WallSeconds: e.wallSeconds,
		ModelOps:    e.modelOps,
		LastTimes:   append([]float64(nil), e.lastTimes...),
		Plans:       copyPlanItems(e.plans),
		SchedStats:  e.schedStats,
		Recovery:    recovery,
		Degrade:     degrade,
	}
}

// Restore overwrites the estimator's mutable state from a snapshot taken
// by a compatible estimator: same files and ranks, under any policy. A
// legacy snapshot — an assignment and no plans — restores its
// assignment as plans. The plans must put every file in exactly one
// rank's plan; Restore rejects any other snapshot, naming the file, and
// on error the estimator is unchanged.
func (e *Estimator) Restore(st State) error {
	nf := len(e.files)
	if len(st.LastTimes) != nf {
		return fmt.Errorf("estimator: snapshot has %d file times, estimator has %d files",
			len(st.LastTimes), nf)
	}
	plans := st.Plans
	if plans == nil {
		plans = make([][]sched.Item, len(st.Assignment))
		for r, files := range st.Assignment {
			for _, fi := range files {
				it := sched.Item{File: fi}
				if fi >= 0 && fi < nf {
					it.Cost = st.LastTimes[fi]
				}
				plans[r] = append(plans[r], it)
			}
		}
	}
	if len(plans) != e.cfg.Ranks {
		return fmt.Errorf("estimator: snapshot plans %d ranks, estimator has %d", len(plans), e.cfg.Ranks)
	}
	planned := make([]bool, nf)
	for _, plan := range plans {
		for _, it := range plan {
			switch {
			case it.File < 0 || it.File >= nf:
				return fmt.Errorf("estimator: snapshot plans unknown file %d", it.File)
			case planned[it.File]:
				return fmt.Errorf("estimator: snapshot plans file %d (%s) more than once",
					it.File, e.files[it.File].Name)
			}
			planned[it.File] = true
		}
	}
	for fi, ok := range planned {
		if !ok {
			return fmt.Errorf("estimator: snapshot plans no rank for file %d (%s)", fi, e.files[fi].Name)
		}
	}
	e.calls = st.Calls
	e.wallSeconds = st.WallSeconds
	e.modelOps = st.ModelOps
	e.lastTimes = append([]float64(nil), st.LastTimes...)
	e.plans = copyPlanItems(plans)
	e.schedStats = st.SchedStats
	e.recMu.Lock()
	e.recovery = st.Recovery
	e.degrade = st.Degrade
	e.recMu.Unlock()
	return nil
}

func copyPlanItems(in [][]sched.Item) [][]sched.Item {
	out := make([][]sched.Item, len(in))
	for i := range in {
		out[i] = append([]sched.Item(nil), in[i]...)
	}
	return out
}
