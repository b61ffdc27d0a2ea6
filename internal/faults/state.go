package faults

import "sort"

// PlanState is the JSON-serializable snapshot of a Plan's mutable state:
// pending (unfired) schedules, cumulative collective counters, fired
// counts and the rate parameter. Restoring it into a fresh Plan aligns
// every future injection with where the snapshotted run left off — the
// checkpoint/resume contract for chaos runs. All slices are sorted so the
// encoding is canonical (content-hash stable). Snapshots written before
// the slow-lane injectors were retired also carry slow_rate, slow_max,
// slow and counts.SlowLanes keys, and snapshots written before the hang
// and timeout injectors were retired carry hang, timeout, counts.Hangs
// and counts.Timeouts keys; decoding skips them all.
type PlanState struct {
	Seed     int64        `json:"seed"`
	Rate     float64      `json:"rate,omitempty"`
	Crash    []StateEntry `json:"crash,omitempty"`
	Stall    []StateEntry `json:"stall,omitempty"`
	FileFail []StateEntry `json:"file_fail,omitempty"`
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
	for _, e := range st.Seen {
		p.seen[e.A] = e.N
	}
	p.counts = st.Counts
	return p
}
