package sched

import (
	"math"
	"sort"
)

// LPT is the paper's deterministic longest-processing-time assignment:
// items sorted by cost non-increasing (ties broken by lower index), each
// placed on the currently least-loaded rank (ties broken by lower rank).
// Returns per-rank item-index lists in placement order. The parity
// property test holds Plan with a constant cost model to this
// function's output.
func LPT(costs []float64, ranks int) [][]int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := costs[order[a]], costs[order[b]]
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
		loads[r] += costs[fi]
	}
	return out
}

// SplitDominant turns per-file predicted costs into schedulable items,
// splitting any file whose cost exceeds share × total into up to
// maxParts contiguous record sub-ranges of near-equal length. share <= 0
// disables splitting (every file is one whole item). Returns the items
// and how many files were split. recs[i] is file i's record count; a
// file never splits into more parts than it has records. Part costs are
// the file's predicted cost prorated by record span, which is what the
// planner and simulator schedule on.
func SplitDominant(costs []float64, recs []int, share float64, maxParts int) ([]Item, int) {
	total := 0.0
	for _, c := range costs {
		total += c
	}
	items := make([]Item, 0, len(costs))
	splits := 0
	for i, c := range costs {
		n := recs[i]
		parts := 1
		if share > 0 && total > 0 && c > share*total && n > 1 {
			// Enough parts to bring each under the share threshold,
			// bounded by maxParts and the record count.
			parts = int(math.Ceil(c / (share * total)))
			if parts > maxParts {
				parts = maxParts
			}
			if parts > n {
				parts = n
			}
		}
		if parts <= 1 {
			items = append(items, Item{File: i, Lo: 0, Hi: n, Cost: c})
			continue
		}
		splits++
		for p := 0; p < parts; p++ {
			lo := p * n / parts
			hi := (p + 1) * n / parts
			items = append(items, Item{
				File: i, Lo: lo, Hi: hi,
				Cost: c * float64(hi-lo) / float64(n),
			})
		}
	}
	return items, splits
}

// PlanItems assigns items to ranks by the same deterministic LPT rule as
// LPT: cost non-increasing with ties broken by (File, Lo) ascending,
// least-loaded rank with ties broken by lower rank. For whole-file items
// this reduces exactly to LPT over the per-file costs. Each returned
// item's Seq is rewritten to its global placement order (0..len-1) so
// callers can keep flat per-item side arrays.
func PlanItems(items []Item, ranks int) [][]Item {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		if ia.Cost != ib.Cost {
			return ia.Cost > ib.Cost
		}
		if ia.File != ib.File {
			return ia.File < ib.File
		}
		return ia.Lo < ib.Lo
	})
	out := make([][]Item, ranks)
	loads := make([]float64, ranks)
	seq := 0
	for _, idx := range order {
		r := 0
		for q := 1; q < ranks; q++ {
			if loads[q] < loads[r] {
				r = q
			}
		}
		it := items[idx]
		it.Seq = seq
		seq++
		out[r] = append(out[r], it)
		loads[r] += it.Cost
	}
	return out
}

// Plan is the full v2 planning step: split dominant files per cfg, then
// LPT the resulting items across ranks. Returns the per-rank plans and
// the number of files that were split.
func Plan(costs []float64, recs []int, ranks int, cfg Config) ([][]Item, int) {
	cfg = cfg.WithDefaults()
	items, splits := SplitDominant(costs, recs, cfg.SplitShare, cfg.MaxParts)
	return PlanItems(items, ranks), splits
}

// LaneSplit deals one rank's plan round-robin across lanes in plan
// order, preserving relative order within each lane. With one lane the
// result is the plan itself. Round-robin (rather than LPT again) keeps
// initial lane queues deliberately imperfect so stealing has work to do;
// the deal is deterministic.
func LaneSplit(items []Item, lanes int) [][]Item {
	if lanes <= 1 {
		return [][]Item{items}
	}
	out := make([][]Item, lanes)
	for i, it := range items {
		l := i % lanes
		out[l] = append(out[l], it)
	}
	return out
}

// MakespanItems returns the maximum per-rank total cost of an item plan
// — the modeled parallel time of one objective call absent stealing.
func MakespanItems(plans [][]Item, costOf func(Item) float64) float64 {
	worst := 0.0
	for _, items := range plans {
		s := 0.0
		for _, it := range items {
			s += costOf(it)
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}
