package faults

import (
	"errors"
	"fmt"
	"sort"

	"rms/internal/ode"
)

// Chaos fault kinds for the robustness layer's degradation ladders and
// watchdogs. Hang and timeout injections exercise the per-attempt budget
// watchdog; slow lanes feed mispredictions into the sched cost model to
// exercise ewma→static.

// ErrInjectedHang marks a solve attempt that must block until its attempt
// budget trips. The injector itself never blocks (a mutex-holding sleep
// would serialize every lane); the estimator recognizes this sentinel and
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

// SlowLane schedules a persistent slowdown factor (≥ 1) for every solve
// planned on the given {rank, lane} — the chronically slow worker the
// sched cost model cannot predict.
func (p *Plan) SlowLane(rank, lane int, factor float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if factor < 1 {
		factor = 1
	}
	p.slow[key{rank, lane}] = factor
	return p
}

// SlowLaneJitter makes every {rank, lane, call} independently slow with
// the given probability, by a factor drawn uniformly from [1, maxFactor].
// Decisions come from per-lane seeded streams (see laneUnit): each
// {rank, lane} owns an independent derived stream, and draws are keyed by
// the objective call, so the schedule is identical no matter how lanes
// interleave — chaos runs stay deterministic under -race.
func (p *Plan) SlowLaneJitter(rate, maxFactor float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slowRate = rate
	if maxFactor < 1 {
		maxFactor = 1
	}
	p.slowMax = maxFactor
	return p
}

// LaneSlowdown returns the multiplicative cost inflation for a solve
// planned on {rank, lane} during the given objective call (1 = no
// slowdown). Persistent SlowLane factors stack with jittered draws.
func (p *Plan) LaneSlowdown(call, rank, lane int) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f := 1.0
	if v, ok := p.slow[key{rank, lane}]; ok {
		f = v
		p.counts.SlowLanes++
	}
	if p.slowRate > 0 {
		if p.laneUnit(rank, lane, int64(call), 0) < p.slowRate {
			f *= 1 + (p.slowMax-1)*p.laneUnit(rank, lane, int64(call), 1)
			p.counts.SlowLanes++
		}
	}
	return f
}

// laneUnit draws a uniform [0, 1) value from the {rank, lane} stream at
// the position keyed by ids. Each lane's stream seed is derived by mixing
// the plan seed with the lane coordinates, so streams are independent per
// lane; positions are keyed (not counted), so a draw's value depends only
// on what is being decided, never on how many decisions other lanes made
// first. Callers hold p.mu.
func (p *Plan) laneUnit(rank, lane int, ids ...int64) float64 {
	parts := append([]int64{p.seed, 0x5157, int64(rank), int64(lane)}, ids...)
	return hashUnit(parts...)
}

// PlanState is the JSON-serializable snapshot of a Plan's mutable state:
// pending (unfired) schedules, cumulative collective counters, fired
// counts and the rate parameters. Restoring it into a fresh Plan aligns
// every future injection with where the snapshotted run left off — the
// checkpoint/resume contract for chaos runs. All slices are sorted so the
// encoding is canonical (content-hash stable).
type PlanState struct {
	Seed     int64        `json:"seed"`
	Rate     float64      `json:"rate,omitempty"`
	SlowRate float64      `json:"slow_rate,omitempty"`
	SlowMax  float64      `json:"slow_max,omitempty"`
	Crash    []StateEntry `json:"crash,omitempty"`
	Stall    []StateEntry `json:"stall,omitempty"`
	FileFail []StateEntry `json:"file_fail,omitempty"`
	Hang     []StateEntry `json:"hang,omitempty"`
	Timeout  []StateEntry `json:"timeout,omitempty"`
	Slow     []SlowEntry  `json:"slow,omitempty"`
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

// SlowEntry is one persistent slow-lane factor.
type SlowEntry struct {
	Rank   int     `json:"rank"`
	Lane   int     `json:"lane"`
	Factor float64 `json:"factor"`
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
		SlowRate: p.slowRate, SlowMax: p.slowMax,
		Crash:    boolEntries(p.crash),
		Stall:    boolEntries(p.stall),
		FileFail: intEntries(p.fileFail),
		Hang:     intEntries(p.hang),
		Timeout:  intEntries(p.timeout),
		Counts:   p.counts,
	}
	for k, f := range p.slow {
		st.Slow = append(st.Slow, SlowEntry{Rank: k.a, Lane: k.b, Factor: f})
	}
	sort.Slice(st.Slow, func(i, j int) bool {
		if st.Slow[i].Rank != st.Slow[j].Rank {
			return st.Slow[i].Rank < st.Slow[j].Rank
		}
		return st.Slow[i].Lane < st.Slow[j].Lane
	})
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
	p.slowRate = st.SlowRate
	p.slowMax = st.SlowMax
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
	for _, e := range st.Slow {
		p.slow[key{e.Rank, e.Lane}] = e.Factor
	}
	for _, e := range st.Seen {
		p.seen[e.A] = e.N
	}
	p.counts = st.Counts
	return p
}
