package sched

import (
	"math"
	"reflect"
	"testing"
)

// it is shorthand for a whole-file item in expected-decision tables.
func wholeFile(file, recs int, cost float64, seq int) Item {
	return Item{File: file, Lo: 0, Hi: recs, Cost: cost, Seq: seq}
}

// TestSimulateExactStealSequence scripts a 2-lane trace where lane 0's
// queue is one long item and lane 1's is three short ones, and asserts
// the exact executed sequence, steal victims, and virtual timestamps.
func TestSimulateExactStealSequence(t *testing.T) {
	queues := [][]Item{
		{{File: 0, Hi: 1, Cost: 10}, {File: 1, Hi: 1, Cost: 10}, {File: 2, Hi: 1, Cost: 10}},
		{{File: 3, Hi: 1, Cost: 2}},
	}
	res := Simulate(queues, true, func(it Item) float64 { return it.Cost })

	// Lane 1 finishes file 3 at t=2 while lane 0 works file 0 to t=10;
	// lane 1 steals from the BACK of lane 0's queue — file 2 — and lane
	// 0, free again at t=10 while lane 1 runs to 12, keeps file 1 for
	// itself. One steal, makespan 20 instead of the no-steal 30.
	want := []SimEvent{
		{Item: queues[0][0], Lane: 0, Victim: -1, Start: 0, End: 10},
		{Item: queues[1][0], Lane: 1, Victim: -1, Start: 0, End: 2},
		{Item: queues[0][2], Lane: 1, Victim: 0, Start: 2, End: 12},
		{Item: queues[0][1], Lane: 0, Victim: -1, Start: 10, End: 20},
	}
	if !reflect.DeepEqual(res.Events, want) {
		t.Fatalf("event sequence:\ngot  %+v\nwant %+v", res.Events, want)
	}
	if res.Steals != 1 {
		t.Fatalf("steals=%d, want 1", res.Steals)
	}
	if res.Makespan != 20 {
		t.Fatalf("makespan=%g, want 20", res.Makespan)
	}
}

// TestSimulateNoStealOnBalancedTrace: equal queues → every lane drains
// its own deque, zero steals, and disabling stealing changes nothing.
func TestSimulateNoStealOnBalancedTrace(t *testing.T) {
	mk := func() [][]Item {
		return [][]Item{
			{{File: 0, Hi: 1, Cost: 3}, {File: 1, Hi: 1, Cost: 3}},
			{{File: 2, Hi: 1, Cost: 3}, {File: 3, Hi: 1, Cost: 3}},
		}
	}
	withSteal := Simulate(mk(), true, func(it Item) float64 { return it.Cost })
	if withSteal.Steals != 0 {
		t.Fatalf("balanced trace stole %d times", withSteal.Steals)
	}
	noSteal := Simulate(mk(), false, func(it Item) float64 { return it.Cost })
	if !reflect.DeepEqual(withSteal.Events, noSteal.Events) {
		t.Fatal("steal on/off diverged on a balanced trace")
	}
	if withSteal.Makespan != 6 {
		t.Fatalf("makespan=%g, want 6", withSteal.Makespan)
	}
}

// TestReplayExactRebalanceDecision scripts costs that invert the seed
// ordering and asserts the exact plans before and after the model
// observes reality. 2 files, 2 ranks: seeds (records) say file 0 is
// heavy; the trace says file 1 is 9x heavier.
func TestReplayExactRebalanceDecision(t *testing.T) {
	recs := []int{100, 10}
	trace := [][]float64{
		{10, 90}, // round 0: planner believes seeds {100,10}
		{10, 90}, // round 1: planner has observed round 0
	}
	rounds := Replay(Config{Alpha: 0.5}, recs, 2, trace)

	// Round 0 plans on seeds: file 0 (cost 100) → rank 0, file 1 → rank 1.
	r0 := rounds[0]
	want0 := [][]Item{
		{wholeFile(0, 100, 100, 0)},
		{wholeFile(1, 10, 10, 1)},
	}
	if !reflect.DeepEqual(r0.Plans, want0) {
		t.Fatalf("round 0 plans:\ngot  %+v\nwant %+v", r0.Plans, want0)
	}
	// First observations replace the seeds outright.
	if r0.Predictions[0] != 10 || r0.Predictions[1] != 90 {
		t.Fatalf("round 0 predictions=%v, want [10 90]", r0.Predictions)
	}

	// Round 1 plans on measurements: file 1 (90) first → rank 0,
	// file 0 (10) → rank 1. The assignment flipped — that IS the
	// rebalance decision.
	r1 := rounds[1]
	want1 := [][]Item{
		{wholeFile(1, 10, 90, 0)},
		{wholeFile(0, 100, 10, 1)},
	}
	if !reflect.DeepEqual(r1.Plans, want1) {
		t.Fatalf("round 1 plans:\ngot  %+v\nwant %+v", r1.Plans, want1)
	}
	if r1.Makespan != 90 {
		t.Fatalf("round 1 makespan=%g, want 90", r1.Makespan)
	}
}

// TestReplayExactSplitDecision: one file dominating total predicted cost
// must split into exactly the expected sub-ranges, and the parts must be
// spread across ranks.
func TestReplayExactSplitDecision(t *testing.T) {
	recs := []int{8, 4, 4}
	// Round 0 measures file 0 at 80 of 100 total; round 1 plans on that.
	trace := [][]float64{
		{80, 10, 10},
		{80, 10, 10},
	}
	cfg := Config{Alpha: 1, SplitShare: 0.4, MaxParts: 4}
	rounds := Replay(cfg, recs, 2, trace)

	// Round 0: seeds are {8,4,4}; file 0 is 8/16 = exactly 0.5 > 0.4 of
	// total → ceil(8/6.4)=2 parts of 4 records each.
	r0 := rounds[0]
	if r0.Splits != 1 {
		t.Fatalf("round 0 splits=%d, want 1", r0.Splits)
	}
	// Parts cost 4 each; files 1,2 cost 4 each: all ties broken by
	// (File, Lo): f0[0,4) → rank 0, f0[4,8) → rank 1, f1 → rank 0, f2 → rank 1.
	want0 := [][]Item{
		{{File: 0, Lo: 0, Hi: 4, Cost: 4, Seq: 0}, {File: 1, Lo: 0, Hi: 4, Cost: 4, Seq: 2}},
		{{File: 0, Lo: 4, Hi: 8, Cost: 4, Seq: 1}, {File: 2, Lo: 0, Hi: 4, Cost: 4, Seq: 3}},
	}
	if !reflect.DeepEqual(r0.Plans, want0) {
		t.Fatalf("round 0 plans:\ngot  %+v\nwant %+v", r0.Plans, want0)
	}

	// Round 1: model now holds {80,10,10}; file 0 is 0.8 of 100 →
	// ceil(80/40)=2 parts. Part costs 40 each, spread across ranks, so
	// the makespan is 40+10=50, not the 100 a whole-file plan pays.
	r1 := rounds[1]
	if r1.Splits != 1 {
		t.Fatalf("round 1 splits=%d, want 1", r1.Splits)
	}
	want1 := [][]Item{
		{{File: 0, Lo: 0, Hi: 4, Cost: 40, Seq: 0}, {File: 1, Lo: 0, Hi: 4, Cost: 10, Seq: 2}},
		{{File: 0, Lo: 4, Hi: 8, Cost: 40, Seq: 1}, {File: 2, Lo: 0, Hi: 4, Cost: 10, Seq: 3}},
	}
	if !reflect.DeepEqual(r1.Plans, want1) {
		t.Fatalf("round 1 plans:\ngot  %+v\nwant %+v", r1.Plans, want1)
	}
	if r1.Makespan != 50 {
		t.Fatalf("round 1 makespan=%g, want 50 (splits balanced)", r1.Makespan)
	}
}

// TestReplayEWMAConvergenceAfterShift: costs shift at round 3; the EWMA
// must converge geometrically to the new level and the relative
// prediction error must fall below 1% within the expected number of
// rounds for alpha=0.5 (error halves each round: 4/3 → <0.01 in 8).
func TestReplayEWMAConvergenceAfterShift(t *testing.T) {
	recs := []int{10, 10}
	const before, after = 30.0, 70.0
	var trace [][]float64
	for r := 0; r < 12; r++ {
		c := before
		if r >= 3 {
			c = after
		}
		trace = append(trace, []float64{c, 30})
	}
	rounds := Replay(Config{Alpha: 0.5}, recs, 2, trace)

	// Pre-shift: converged after the first observation (constant costs).
	if p := rounds[2].Predictions[0]; p != before {
		t.Fatalf("pre-shift prediction=%g, want %g", p, before)
	}
	// At the shift round the model is maximally wrong about file 0:
	// relErr = |70-30|/30.
	if got, want := rounds[3].RelErrs[0], (after-before)/before; math.Abs(got-want) > 1e-12 {
		t.Fatalf("shift-round relErr=%g, want %g", got, want)
	}
	// EWMA closes half the gap per round: pred_k = 70 - 40*2^-(k-2).
	for k := 3; k < 12; k++ {
		want := after - (after-before)*math.Pow(0.5, float64(k-2))
		if got := rounds[k].Predictions[0]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("round %d prediction=%g, want %g", k, got, want)
		}
	}
	// Converged: relative error below 1% by round 9 and monotonically
	// shrinking after the shift.
	if rounds[9].RelErrs[0] >= 0.01 {
		t.Fatalf("round 9 relErr=%g, want <0.01", rounds[9].RelErrs[0])
	}
	for k := 4; k < 12; k++ {
		if rounds[k].RelErrs[0] >= rounds[k-1].RelErrs[0] {
			t.Fatalf("relErr not shrinking at round %d: %g -> %g",
				k, rounds[k-1].RelErrs[0], rounds[k].RelErrs[0])
		}
	}
	// The untouched file's model never wobbles.
	for k := range rounds {
		if rounds[k].Predictions[1] != 30 {
			t.Fatalf("round %d: stable file moved to %g", k, rounds[k].Predictions[1])
		}
	}
}

// TestReplayPolicies pins the three policies apart on a trace whose
// true costs invert the seeds: static never re-plans, lpt re-plans on
// raw measurements, ewma re-plans on the smoothed model.
func TestReplayPolicies(t *testing.T) {
	recs := []int{60, 10, 10}
	trace := [][]float64{
		{5, 40, 40},
		{5, 40, 40},
		{5, 40, 40},
	}
	static := Replay(Config{Policy: PolicyStatic}, recs, 2, trace)
	lpt := Replay(Config{Policy: PolicyLPT}, recs, 2, trace)
	ewma := Replay(Config{Policy: PolicyEWMA, Alpha: 0.5}, recs, 2, trace)

	// Static: identical plans every round, makespan stuck at 80 (both
	// 40-cost files land on rank 1, which seeded as the light rank).
	for r := 1; r < 3; r++ {
		if !reflect.DeepEqual(static[r].Plans, static[0].Plans) {
			t.Fatalf("static policy re-planned at round %d", r)
		}
	}
	if static[2].Makespan != 80 {
		t.Fatalf("static makespan=%g, want 80", static[2].Makespan)
	}
	// Both dynamic policies fix it from round 1 on: 40 | 40+5 = 45.
	if lpt[2].Makespan != 45 || ewma[2].Makespan != 45 {
		t.Fatalf("dynamic makespans lpt=%g ewma=%g, want 45", lpt[2].Makespan, ewma[2].Makespan)
	}
	// And they agree exactly once converged on a stationary trace.
	if !reflect.DeepEqual(lpt[2].Plans, ewma[2].Plans) {
		t.Fatalf("converged lpt/ewma plans differ:\n%+v\n%+v", lpt[2].Plans, ewma[2].Plans)
	}
}

// TestReplayDeterministic runs the same skewed, steal-heavy replay three
// times and requires byte-identical results — the harness must be free
// of map iteration, timing, or scheduling nondeterminism.
func TestReplayDeterministic(t *testing.T) {
	recs := []int{50, 7, 13, 9, 21, 3, 17, 11}
	trace := [][]float64{
		{90, 3, 7, 5, 11, 2, 9, 6},
		{70, 5, 9, 4, 13, 3, 8, 7},
		{85, 4, 6, 6, 12, 2, 10, 5},
	}
	cfg := Config{Alpha: 0.4, SplitShare: 0.3, MaxParts: 3, Lanes: 2, Steal: true}
	first := Replay(cfg, recs, 4, trace)
	for run := 1; run < 3; run++ {
		again := Replay(cfg, recs, 4, trace)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("replay run %d diverged", run)
		}
	}
	// The skewed trace must actually exercise the machinery.
	totalSteals := 0
	for _, r := range first {
		totalSteals += r.Steals
	}
	if totalSteals == 0 {
		t.Fatal("skewed replay never stole")
	}
	if first[1].Splits == 0 {
		t.Fatal("dominant file never split")
	}
}
