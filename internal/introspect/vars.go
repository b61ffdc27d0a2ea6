// The /debug/vars snapshot: a point-in-time picture of the process,
// framed in the checkpoint envelope (version + kind + sha256 of the
// payload). Because the payload is a fixed struct — no maps — its JSON
// field order is the declaration order, the envelope hash is stable
// under unmarshal/re-marshal, and a snapshot downloaded from a live run
// can be attached to an rmsverify failure reproducer and verified later
// exactly like a checkpoint file.
package introspect

import (
	"math"
	"os"
	"runtime"

	"rms/internal/budget"
	"rms/internal/checkpoint"
	"rms/internal/telemetry"
)

// VarsKind tags /debug/vars snapshots in the checkpoint envelope.
const VarsKind = "rms-introspect-vars"

// EventStats summarizes the flight recorder in a Vars snapshot.
type EventStats struct {
	// Total counts events ever appended; Retained of them are still in
	// the ring; Dropped scrolled off.
	Total    uint64 `json:"total"`
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}

// BudgetVars is the run budget's state.
type BudgetVars struct {
	Checks    int64 `json:"checks"`
	Exhausted bool  `json:"exhausted"`
	// Reason is the trip error text ("" while active).
	Reason string `json:"reason,omitempty"`
}

// Vars is the /debug/vars payload. Only JSON-canonical types appear
// here (structs and slices, no maps, no non-finite floats), so
// checkpoint.Marshal produces byte-identical envelopes for identical
// states — the wire-conformance contract rmsverify relies on.
type Vars struct {
	Program       string                  `json:"program"`
	PID           int                     `json:"pid"`
	GoVersion     string                  `json:"go_version"`
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Metrics       []telemetry.MetricValue `json:"metrics,omitempty"`
	Events        EventStats              `json:"events"`
	Budget        *BudgetVars             `json:"budget,omitempty"`
}

func budgetVars(b *budget.Budget) BudgetVars {
	bv := BudgetVars{Checks: b.Checks()}
	if err := b.Err(); err != nil {
		bv.Exhausted = true
		bv.Reason = err.Error()
	}
	return bv
}

// sanitizeMetrics replaces the one non-finite value a snapshot can carry
// — a histogram P90 beyond the largest finite bucket reads +Inf — with
// -1, since JSON cannot encode infinities. Negative P90 therefore means
// "in the overflow bucket".
func sanitizeMetrics(snap []telemetry.MetricValue) []telemetry.MetricValue {
	for i := range snap {
		if math.IsInf(snap[i].P90, 0) || math.IsNaN(snap[i].P90) {
			snap[i].P90 = -1
		}
		if math.IsInf(snap[i].Value, 0) || math.IsNaN(snap[i].Value) {
			snap[i].Value = -1
		}
		if math.IsInf(snap[i].Mean, 0) || math.IsNaN(snap[i].Mean) {
			snap[i].Mean = -1
		}
	}
	return snap
}

// Vars assembles the current snapshot.
func (s *Server) Vars() Vars {
	v := Vars{
		Program:       s.Program,
		PID:           os.Getpid(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: float64(telemetry.Now()-s.start) / 1e9,
		Metrics:       sanitizeMetrics(s.Registry.Snapshot()),
	}
	if s.Recorder != nil {
		v.Events.Total = s.Recorder.Total()
		v.Events.Retained = len(s.Recorder.Events())
		v.Events.Dropped = v.Events.Total - uint64(v.Events.Retained)
	}
	if s.Budget != nil {
		bv := budgetVars(s.Budget)
		v.Budget = &bv
	}
	return v
}

// MarshalVars frames a Vars snapshot in the checkpoint envelope.
func MarshalVars(v Vars) ([]byte, error) {
	return checkpoint.Marshal(VarsKind, v)
}

// UnmarshalVars verifies an enveloped snapshot (kind + payload hash) and
// decodes it.
func UnmarshalVars(data []byte) (Vars, error) {
	var v Vars
	err := checkpoint.Unmarshal(data, VarsKind, &v)
	return v, err
}
