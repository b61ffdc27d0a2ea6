package sched

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// referenceLPT is an independent copy of the paper's deterministic LPT
// assignment (sort by time non-increasing, ties → lower file index;
// least-loaded rank, ties → lower rank), kept here so the tests below
// pin LPT to the historical algorithm rather than to whatever LPT
// currently does.
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
		got := filesOf(LPT(costs, ranks))
		want := referenceLPT(costs, ranks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: LPT diverged from reference\ncosts=%v ranks=%d\ngot  %v\nwant %v",
				trial, costs, ranks, got, want)
		}
	}
}

func TestLPTKnown(t *testing.T) {
	// Times 5,4,3,3,2,1 over 2 ranks: LPT gives makespan 9 (optimal).
	times := []float64{5, 4, 3, 3, 2, 1}
	if ms := MakespanItems(LPT(times, 2), times); ms != 9 {
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
		lpt := MakespanItems(a, times)
		lower := math.Max(maxT, sum/float64(ranks))
		bound := sum/float64(ranks) + (1-1/float64(ranks))*maxT
		if lpt < lower-1e-9 || lpt > bound+maxT*1e-9 {
			t.Logf("LPT %v outside [%v, %v]", lpt, lower, bound)
			return false
		}
		seen := make(map[int]bool)
		for _, items := range a {
			for _, it := range items {
				if seen[it.File] || it.Cost != times[it.File] {
					return false
				}
				seen[it.File] = true
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
	for r, files := range filesOf(LPT(times, ranks)) {
		for j, fi := range files {
			if fi != j*ranks+r {
				t.Fatalf("rank %d file %d = %d, want round-robin %d", r, j, fi, j*ranks+r)
			}
		}
	}
}

// filesOf flattens an item plan back to per-rank file-index lists (nil
// for a rank with no files, like referenceLPT).
func filesOf(plans [][]Item) [][]int {
	out := make([][]int, len(plans))
	for r, items := range plans {
		for _, it := range items {
			out[r] = append(out[r], it.File)
		}
	}
	return out
}

// MakespanItems sums each rank's costs in plan order and takes the
// largest sum; ranks without files count zero.
func TestMakespanItems(t *testing.T) {
	plans := [][]Item{{{File: 2}, {File: 0}}, {{File: 1}}, nil}
	if got := MakespanItems(plans, []float64{1, 7, 5}); got != 7 {
		t.Errorf("makespan %v, want 7", got)
	}
	if got := MakespanItems(plans, []float64{4, 1, 5}); got != 9 {
		t.Errorf("makespan %v, want 9", got)
	}
}

// The zero policy is Fig. 9's block plan, and each policy prints its
// name.
func TestPolicyNames(t *testing.T) {
	if PolicyBlock != 0 {
		t.Errorf("zero policy is %q, want block", Policy(0))
	}
	for p, want := range map[Policy]string{PolicyBlock: "block", PolicyStatic: "static", PolicyLPT: "lpt"} {
		if got := p.String(); got != want {
			t.Errorf("%d prints %q, want %q", int(p), got, want)
		}
	}
}
