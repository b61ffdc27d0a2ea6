package sched

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// referenceLPT is an independent copy of the PR 1 deterministic LPT
// assignment (sort by time non-increasing, ties → lower file index;
// least-loaded rank, ties → lower rank), kept here so the property test
// below pins Plan/PlanItems to the historical algorithm rather than to
// whatever LPT currently does.
func referenceLPT(times []float64, ranks int) [][]int {
	order := make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := times[order[a]], times[order[b]]
		if ta != tb {
			return ta > tb
		}
		return order[a] < order[b]
	})
	out := make([][]int, ranks)
	loads := make([]float64, ranks)
	for _, fi := range order {
		r := 0
		for q := 1; q < ranks; q++ {
			if loads[q] < loads[r] {
				r = q
			}
		}
		out[r] = append(out[r], fi)
		loads[r] += times[fi]
	}
	return out
}

func TestLPTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		ranks := 1 + rng.Intn(6)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = float64(rng.Intn(8)) // small ints force ties
		}
		got := LPT(costs, ranks)
		want := referenceLPT(costs, ranks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: LPT diverged from reference\ncosts=%v ranks=%d\ngot  %v\nwant %v",
				trial, costs, ranks, got, want)
		}
	}
}

// lptMakespan is the maximum per-rank total time of an LPT assignment.
func lptMakespan(assign [][]int, times []float64) float64 {
	worst := 0.0
	for _, files := range assign {
		s := 0.0
		for _, fi := range files {
			s += times[fi]
		}
		worst = math.Max(worst, s)
	}
	return worst
}

func TestLPTKnown(t *testing.T) {
	// Times 5,4,3,3,2,1 over 2 ranks: LPT gives makespan 9 (optimal).
	times := []float64{5, 4, 3, 3, 2, 1}
	if ms := lptMakespan(LPT(times, 2), times); ms != 9 {
		t.Errorf("LPT makespan = %v, want 9", ms)
	}
}

// Properties of LPT: within the greedy list-scheduling guarantee
// sum/m + (1-1/m)·max, never below the lower bounds max(t_i) and sum/m,
// and every file assigned exactly once. (LPT is a heuristic: a specific
// static block layout can occasionally beat it, so no pairwise dominance
// is asserted; the estimator's TestLoadBalanceImproves checks the win on
// realistic imbalance.)
func TestLPTProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nf := 1 + rng.Intn(20)
		ranks := 1 + rng.Intn(8)
		times := make([]float64, nf)
		sum, maxT := 0.0, 0.0
		for i := range times {
			times[i] = rng.Float64()*10 + 0.1
			sum += times[i]
			maxT = math.Max(maxT, times[i])
		}
		a := LPT(times, ranks)
		lpt := lptMakespan(a, times)
		lower := math.Max(maxT, sum/float64(ranks))
		bound := sum/float64(ranks) + (1-1/float64(ranks))*maxT
		if lpt < lower-1e-9 || lpt > bound+maxT*1e-9 {
			t.Logf("LPT %v outside [%v, %v]", lpt, lower, bound)
			return false
		}
		seen := make(map[int]bool)
		for _, files := range a {
			for _, fi := range files {
				if seen[fi] {
					return false
				}
				seen[fi] = true
			}
		}
		return len(seen) == nf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// With all-equal times the index tie-break makes the sorted order
// exactly 0..n-1 and the least-loaded-rank rule (ties to the lower rank)
// deals files round-robin, so the assignment is known in closed form.
func TestLPTDeterministicUnderTies(t *testing.T) {
	times := make([]float64, 11)
	for i := range times {
		times[i] = 3.5
	}
	const ranks = 4
	for r, files := range LPT(times, ranks) {
		for j, fi := range files {
			if fi != j*ranks+r {
				t.Fatalf("rank %d file %d = %d, want round-robin %d", r, j, fi, j*ranks+r)
			}
		}
	}
}

// filesOf flattens an item plan back to per-rank file-index lists.
func filesOf(plans [][]Item) [][]int {
	out := make([][]int, len(plans))
	for r, items := range plans {
		out[r] = []int{}
		for _, it := range items {
			out[r] = append(out[r], it.File)
		}
	}
	return out
}

// The satellite property test: Plan with a constant cost model (the
// seed predictions, never updated) and splitting disabled must
// reproduce PR 1's deterministic LPT assignment exactly, tie-breaks
// included. testing/quick drives random cost vectors; duplicate costs
// appear often because values are quantized.
func TestPlanConstantModelReproducesLPTProperty(t *testing.T) {
	prop := func(raw []uint8, rankSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		ranks := 1 + int(rankSeed%5)
		costs := make([]float64, len(raw))
		recs := make([]int, len(raw))
		for i, v := range raw {
			costs[i] = float64(v % 16) // coarse → many exact ties
			recs[i] = 1 + int(v%7)
		}
		// Constant model: alpha 0 freezes predictions at the seed.
		model := NewCostModel(len(costs), 0)
		model.Seed(costs)
		for i := range costs {
			model.Observe(i, 1e9*float64(i+1)) // must not move predictions
		}
		plans, splits := Plan(model.Predictions(), recs, ranks, Config{SplitShare: 0})
		if splits != 0 {
			return false
		}
		got := filesOf(plans)
		want := referenceLPT(costs, ranks)
		for r := range want {
			if want[r] == nil {
				want[r] = []int{}
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelSeedAndEWMA(t *testing.T) {
	m := NewCostModel(2, 0.5)
	m.Seed([]float64{100, 200}) // record counts, wrong units

	// First observation replaces the seed (unit mismatch), and reports
	// it via first=true.
	rel, first := m.Observe(0, 10)
	if !first {
		t.Fatal("first observation not flagged")
	}
	if math.Abs(rel-0.9) > 1e-15 { // |10-100|/100
		t.Fatalf("rel err vs seed = %g, want 0.9", rel)
	}
	if m.Predict(0) != 10 {
		t.Fatalf("after first obs Predict=%g, want 10 (seed replaced)", m.Predict(0))
	}

	// Second observation EWMAs: 10 + 0.5*(20-10) = 15.
	rel, first = m.Observe(0, 20)
	if first {
		t.Fatal("second observation flagged first")
	}
	if math.Abs(rel-1.0) > 1e-15 {
		t.Fatalf("rel err = %g, want 1.0", rel)
	}
	if m.Predict(0) != 15 {
		t.Fatalf("EWMA Predict=%g, want 15", m.Predict(0))
	}

	// Untouched item keeps its seed.
	if m.Predict(1) != 200 {
		t.Fatalf("untouched Predict=%g, want 200", m.Predict(1))
	}

	// Non-finite / non-positive measurements are ignored.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		rel, _ := m.Observe(0, bad)
		if !math.IsNaN(rel) {
			t.Fatalf("Observe(%g) relErr=%g, want NaN", bad, rel)
		}
		if m.Predict(0) != 15 {
			t.Fatalf("Observe(%g) moved prediction to %g", bad, m.Predict(0))
		}
	}
}

func TestSplitDominant(t *testing.T) {
	costs := []float64{70, 10, 10, 10}
	recs := []int{10, 5, 5, 5}

	// share 0: no splitting ever.
	items, splits := SplitDominant(costs, recs, 0, 4)
	if splits != 0 || len(items) != 4 {
		t.Fatalf("share=0 split anyway: %d splits, %d items", splits, len(items))
	}

	// File 0 is 70% of 100 total; share 0.3 wants ceil(70/30)=3 parts.
	items, splits = SplitDominant(costs, recs, 0.3, 4)
	if splits != 1 {
		t.Fatalf("splits=%d, want 1", splits)
	}
	var parts []Item
	for _, it := range items {
		if it.File == 0 {
			parts = append(parts, it)
		}
	}
	if len(parts) != 3 {
		t.Fatalf("file 0 split into %d parts, want 3", len(parts))
	}
	// Contiguous cover of [0,10), costs prorated by span.
	wantRanges := [][2]int{{0, 3}, {3, 6}, {6, 10}}
	costSum := 0.0
	for i, it := range parts {
		if it.Lo != wantRanges[i][0] || it.Hi != wantRanges[i][1] {
			t.Fatalf("part %d = [%d,%d), want %v", i, it.Lo, it.Hi, wantRanges[i])
		}
		if got, want := it.Cost, 70*float64(it.Hi-it.Lo)/10; math.Abs(got-want) > 1e-12 {
			t.Fatalf("part %d cost=%g, want %g", i, got, want)
		}
		if !it.IsSplit(recs[0]) {
			t.Fatalf("part %d not flagged split", i)
		}
		costSum += it.Cost
	}
	if math.Abs(costSum-70) > 1e-12 {
		t.Fatalf("split parts cost %g, want 70", costSum)
	}

	// MaxParts caps; record count caps harder.
	items, _ = SplitDominant([]float64{100, 1}, []int{2, 5}, 0.05, 8)
	n0 := 0
	for _, it := range items {
		if it.File == 0 {
			n0++
		}
	}
	if n0 != 2 {
		t.Fatalf("2-record file split into %d parts, want 2", n0)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{SplitShare: 0.25}.WithDefaults()
	if c.Alpha != 0.3 || c.MaxParts != 4 || c.Lanes != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	// File-granularity policies force splitting off.
	c = Config{Policy: PolicyLPT, SplitShare: 0.25}.WithDefaults()
	if c.SplitShare != 0 {
		t.Fatalf("PolicyLPT kept SplitShare=%g", c.SplitShare)
	}
	c = Config{Policy: PolicyStatic, SplitShare: 0.25}.WithDefaults()
	if c.SplitShare != 0 {
		t.Fatalf("PolicyStatic kept SplitShare=%g", c.SplitShare)
	}
}

func TestStealSetDiscipline(t *testing.T) {
	qs := [][]Item{
		{{File: 0, Hi: 1, Cost: 5}, {File: 1, Hi: 1, Cost: 4}},
		{{File: 2, Hi: 1, Cost: 9}, {File: 3, Hi: 1, Cost: 1}},
		{},
	}
	s := NewStealSet(qs, true)

	// Own pops come from the front.
	it, v, ok := s.Next(0)
	if !ok || v != -1 || it.File != 0 {
		t.Fatalf("own pop = %+v victim %d", it, v)
	}
	// Dry lane 2 steals from lane 1 (pending 10 > lane 0's 4), and from
	// the BACK: file 3.
	it, v, ok = s.Next(2)
	if !ok || v != 1 || it.File != 3 {
		t.Fatalf("steal = file %d from %d, want file 3 from 1", it.File, v)
	}
	if s.Steals() != 1 {
		t.Fatalf("steals=%d, want 1", s.Steals())
	}
	// Now lane 1 pends 9, lane 0 pends 4 → next steal takes file 2.
	it, v, ok = s.Next(2)
	if !ok || v != 1 || it.File != 2 {
		t.Fatalf("steal 2 = file %d from %d, want file 2 from 1", it.File, v)
	}
	// Lane 1 dry → steals lane 0's back (file 1).
	it, v, ok = s.Next(1)
	if !ok || v != 0 || it.File != 1 {
		t.Fatalf("steal 3 = file %d from %d, want file 1 from 0", it.File, v)
	}
	// Everything drained.
	if _, _, ok := s.Next(0); ok {
		t.Fatal("expected empty set")
	}
	if s.Steals() != 3 {
		t.Fatalf("steals=%d, want 3", s.Steals())
	}

	// steal=false: dry lanes get nothing even with work elsewhere.
	s = NewStealSet(qs, false)
	if _, _, ok := s.Next(2); ok {
		t.Fatal("no-steal set handed out foreign work")
	}
}

func TestLaneSplit(t *testing.T) {
	items := []Item{{File: 0}, {File: 1}, {File: 2}, {File: 3}, {File: 4}}
	got := LaneSplit(items, 2)
	if len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 2 {
		t.Fatalf("lane split shape: %v", got)
	}
	if got[0][0].File != 0 || got[0][1].File != 2 || got[1][0].File != 1 {
		t.Fatalf("round-robin order broken: %v", got)
	}
	one := LaneSplit(items, 1)
	if len(one) != 1 || len(one[0]) != 5 {
		t.Fatalf("1-lane split: %v", one)
	}
}
