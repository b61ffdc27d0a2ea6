// Package sched is dynamic load balancing v2: the cost-model-driven
// scheduler that replaces the paper's static-per-call LPT assignment
// (Fig. 9, Table 2) with the runtime-rebalancing posture of the DLBFoam
// line of work. Three mechanisms compose:
//
//   - a persistent per-item cost model (CostModel), seeded from the
//     static a-priori estimate — record counts, the only thing the
//     paper's balancer knows before the first call — and updated after
//     every objective call with an EWMA of measured solve costs;
//   - a planner (Plan) that re-assigns items to ranks between calls by
//     LPT over the model's predictions, optionally splitting a dominant
//     item into record sub-ranges when its predicted cost exceeds a
//     configurable share of the total;
//   - an intra-rank work-stealing executor (StealSet): one deque per
//     lane, lanes pop their own front and, when dry, steal from the back
//     of the busiest victim's deque under a lock.
//
// Scheduling decisions never touch numerics: the estimator accumulates
// every item's residual contribution into a per-file buffer and reduces
// the buffers in ascending file order, so results are bit-identical for
// any rank count, lane count, steal order or split decision — and
// identical to the serial single-rank path. The package itself is
// execution-agnostic: the same StealSet drives both the concurrent
// runner (Run) and the deterministic virtual-clock simulator (Simulate),
// which replays scripted per-item cost traces through the real scheduler
// code so policy changes are regression-tested against exact expected
// decisions (sim_test.go, docs/load-balancing.md).
package sched

import "fmt"

// Policy selects how the planner reacts to measured costs between
// objective calls.
type Policy int

const (
	// PolicyEWMA re-plans on the EWMA cost model's predictions and may
	// split dominant items — dynamic load balancing v2 (the default).
	PolicyEWMA Policy = iota
	// PolicyStatic plans once from the seed estimates and never
	// re-plans: the paper's static LPT baseline, at file granularity.
	PolicyStatic
	// PolicyLPT re-plans every call by LPT over the raw last-measured
	// costs, with no smoothing and no splitting — the paper's dynamic
	// load balancer.
	PolicyLPT
)

func (p Policy) String() string {
	switch p {
	case PolicyEWMA:
		return "ewma"
	case PolicyStatic:
		return "static"
	case PolicyLPT:
		return "lpt"
	}
	return "unknown"
}

// ParsePolicy inverts Policy.String — checkpoint decoding.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "ewma":
		return PolicyEWMA, nil
	case "static":
		return PolicyStatic, nil
	case "lpt":
		return PolicyLPT, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q", s)
}

// Config shapes the scheduler. The zero value is the default EWMA
// scheduler with one lane; the estimator's nil config is the paper's
// static block distribution instead.
type Config struct {
	// Policy selects the re-planning rule (default PolicyEWMA).
	Policy Policy
	// Alpha is the EWMA weight of a new measurement in (0, 1]; 0 takes
	// the default 0.3. (A *constant* cost model — predictions frozen at
	// the seed — is obtained by constructing a CostModel with alpha 0
	// directly; see NewCostModel.)
	Alpha float64
	// SplitShare, when > 0, splits an item whose predicted cost exceeds
	// SplitShare × (total predicted cost) into record sub-ranges. 0
	// disables splitting. Sub-range execution is numerically exact (the
	// prefix records are fast-forwarded through the same integration
	// loop), so splitting is safe anywhere; see docs/load-balancing.md
	// for its cost trade-off on trajectory workloads.
	SplitShare float64
	// MaxParts caps the sub-ranges one item may split into (default 4
	// when SplitShare > 0).
	MaxParts int
	// Lanes is the number of worker lanes per rank (default 1). With
	// one lane the executor degenerates to the sequential per-rank loop.
	Lanes int
	// Steal enables work stealing between a rank's lanes. Without it,
	// lanes drain only their own deques.
	Steal bool
}

// WithDefaults resolves the zero fields to their documented defaults.
func (c Config) WithDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.3
	}
	if c.Alpha > 1 {
		c.Alpha = 1
	}
	if c.SplitShare > 0 && c.MaxParts <= 0 {
		c.MaxParts = 4
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.Policy == PolicyLPT || c.Policy == PolicyStatic {
		// The dynamic and static LPT baselines are file-granularity
		// policies: they never split.
		c.SplitShare = 0
	}
	return c
}

// Item is one schedulable unit of work: a record sub-range [Lo, Hi) of
// one data file. An unsplit file is a single item covering [0, records).
type Item struct {
	// File is the data-file index the item belongs to.
	File int
	// Lo and Hi bound the half-open record range the item emits.
	Lo, Hi int
	// Cost is the predicted cost at planning time (op units).
	Cost float64
	// Seq is an opaque caller tag (the estimator uses it to map items
	// back to per-item measurement slots); the planner assigns items
	// their final position after assignment.
	Seq int
}

// Split reports whether the item is a proper sub-range of its file
// (rather than the whole file), given the file's record count.
func (it Item) IsSplit(records int) bool {
	return it.Lo != 0 || it.Hi != records
}
