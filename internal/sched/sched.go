// Package sched is the parallel estimator's load balancer: it plans
// which rank solves which data file in each objective call. There are
// three plans:
//
//   - the block plan of Fig. 9 (BLOCK_SIZE()): contiguous, near-equal
//     blocks of files per rank, in file order, never re-planned;
//   - static: the paper's LPT over record counts — all a planner knows
//     before the first call — planned once and never re-planned;
//   - lpt: the paper's dynamic load balancer (Table 2), which re-plans
//     every call by LPT over the per-file solve costs measured in the
//     previous call.
//
// Plans never touch numerics: the estimator accumulates every file's
// residual contribution into its own buffer and folds the buffers in
// ascending file order, so fits are bit-identical for any plan and any
// rank count (docs/load-balancing.md).
package sched

import "sort"

// Policy selects how the estimator plans files onto ranks.
type Policy int

const (
	// PolicyBlock is Fig. 9's static block distribution (the zero value).
	PolicyBlock Policy = iota
	// PolicyStatic plans once by LPT over record counts and never
	// re-plans: the static baseline of the skew bench.
	PolicyStatic
	// PolicyLPT re-plans every call by LPT over the last measured
	// per-file costs: the paper's dynamic load balancer.
	PolicyLPT
)

func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyStatic:
		return "static"
	case PolicyLPT:
		return "lpt"
	}
	return "unknown"
}

// Item is one data file in a rank's plan.
type Item struct {
	// File is the data-file index.
	File int
	// Cost is the per-file cost the plan was made from: record counts
	// before the first call, measured op units after it.
	Cost float64
}

// Block deals files to ranks in contiguous, near-equal blocks in file
// order — Fig. 9's BLOCK_SIZE(). costs[i] is file i's cost estimate,
// carried into the items.
func Block(costs []float64, ranks int) [][]Item {
	out := make([][]Item, ranks)
	base := len(costs) / ranks
	rem := len(costs) % ranks
	fi := 0
	for r := 0; r < ranks; r++ {
		n := base
		if r < rem {
			n++
		}
		for i := 0; i < n; i++ {
			out[r] = append(out[r], Item{File: fi, Cost: costs[fi]})
			fi++
		}
	}
	return out
}

// LPT is the paper's deterministic longest-processing-time assignment:
// files sorted by cost non-increasing (ties broken by lower index), each
// placed on the currently least-loaded rank (ties broken by lower rank).
// Returns per-rank plans in placement order.
func LPT(costs []float64, ranks int) [][]Item {
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
	out := make([][]Item, ranks)
	loads := make([]float64, ranks)
	for _, fi := range order {
		r := 0
		for q := 1; q < ranks; q++ {
			if loads[q] < loads[r] {
				r = q
			}
		}
		out[r] = append(out[r], Item{File: fi, Cost: costs[fi]})
		loads[r] += costs[fi]
	}
	return out
}

// MakespanItems returns the largest per-rank sum of cost[it.File] over
// a plan — the modeled parallel time of one objective call when every
// rank owns a processor. Each rank's sum runs in plan order.
func MakespanItems(plans [][]Item, cost []float64) float64 {
	worst := 0.0
	for _, items := range plans {
		s := 0.0
		for _, it := range items {
			s += cost[it.File]
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}
