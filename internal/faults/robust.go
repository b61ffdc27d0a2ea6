package faults

import (
	"errors"
	"fmt"
	"sort"

	"rms/internal/ode"
)

// Chaos fault kinds for the robustness layer's watchdogs: hang and
// timeout injections exercise the per-attempt budget watchdog.

// ErrInjectedHang marks a solve attempt that must block until its attempt
// budget trips. The injector itself never blocks (a mutex-holding sleep
// would serialize every rank); the estimator recognizes this sentinel and
// parks the attempt on its budget's Done channel, exactly as a genuinely
// wedged solver would look to the watchdog.
var ErrInjectedHang = errors.New("faults: injected hang")

// ErrInjectedTimeout marks a solve attempt that reports an attempt-budget
// timeout. It wraps ode.ErrTooManySteps so the retry policy treats it as
// a transient solver breakdown, but keeps its own identity so telemetry
// can count timeouts apart from ordinary injected failures.
var ErrInjectedTimeout = fmt.Errorf("faults: injected solve timeout: %w", ode.ErrTooManySteps)

// HangFile schedules the first attempt of solving the given file at the
// given objective call to hang until its attempt budget trips; retries
// proceed normally — the watchdog-recovers case.
func (p *Plan) HangFile(file, call int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hang[key{file, call}] = 1
	return p
}

// TimeoutFile schedules the first attempt of solving the given file at
// the given objective call to fail with an injected timeout; retries
// proceed normally.
func (p *Plan) TimeoutFile(file, call int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timeout[key{file, call}] = 1
	return p
}

// PlanState is the JSON-serializable snapshot of a Plan's mutable state:
// pending (unfired) schedules, cumulative collective counters, fired
// counts and the rate parameter. Restoring it into a fresh Plan aligns
// every future injection with where the snapshotted run left off — the
// checkpoint/resume contract for chaos runs. All slices are sorted so the
// encoding is canonical (content-hash stable). Snapshots written before
// the slow-lane injectors were retired also carry slow_rate, slow_max,
// slow and counts.SlowLanes keys; decoding skips them.
type PlanState struct {
	Seed     int64        `json:"seed"`
	Rate     float64      `json:"rate,omitempty"`
	Crash    []StateEntry `json:"crash,omitempty"`
	Stall    []StateEntry `json:"stall,omitempty"`
	FileFail []StateEntry `json:"file_fail,omitempty"`
	Hang     []StateEntry `json:"hang,omitempty"`
	Timeout  []StateEntry `json:"timeout,omitempty"`
	Seen     []StateEntry `json:"seen,omitempty"`
	Counts   Counts       `json:"counts"`
}

// StateEntry is one keyed schedule entry: {A, B} is the key (rank/nth or
// file/call; B unused for Seen), N the attempt count or counter value.
type StateEntry struct {
	A int `json:"a"`
	B int `json:"b,omitempty"`
	N int `json:"n,omitempty"`
}

func sortEntries(es []StateEntry) []StateEntry {
	sort.Slice(es, func(i, j int) bool {
		if es[i].A != es[j].A {
			return es[i].A < es[j].A
		}
		return es[i].B < es[j].B
	})
	return es
}

func boolEntries(m map[key]bool) []StateEntry {
	var out []StateEntry
	for k := range m {
		out = append(out, StateEntry{A: k.a, B: k.b, N: 1})
	}
	return sortEntries(out)
}

func intEntries(m map[key]int) []StateEntry {
	var out []StateEntry
	for k, n := range m {
		out = append(out, StateEntry{A: k.a, B: k.b, N: n})
	}
	return sortEntries(out)
}

// Snapshot captures the plan's complete mutable state.
func (p *Plan) Snapshot() PlanState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PlanState{
		Seed: p.seed, Rate: p.rate,
		Crash:    boolEntries(p.crash),
		Stall:    boolEntries(p.stall),
		FileFail: intEntries(p.fileFail),
		Hang:     intEntries(p.hang),
		Timeout:  intEntries(p.timeout),
		Counts:   p.counts,
	}
	for r, n := range p.seen {
		st.Seen = append(st.Seen, StateEntry{A: r, N: n})
	}
	st.Seen = sortEntries(st.Seen)
	return st
}

// FromState rebuilds a Plan from a snapshot; the restored plan's future
// injections fire exactly as the snapshotted plan's would have.
func FromState(st PlanState) *Plan {
	p := NewPlan(st.Seed)
	p.rate = st.Rate
	for _, e := range st.Crash {
		p.crash[key{e.A, e.B}] = true
	}
	for _, e := range st.Stall {
		p.stall[key{e.A, e.B}] = true
	}
	for _, e := range st.FileFail {
		p.fileFail[key{e.A, e.B}] = e.N
	}
	for _, e := range st.Hang {
		p.hang[key{e.A, e.B}] = e.N
	}
	for _, e := range st.Timeout {
		p.timeout[key{e.A, e.B}] = e.N
	}
	for _, e := range st.Seen {
		p.seen[e.A] = e.N
	}
	p.counts = st.Counts
	return p
}
