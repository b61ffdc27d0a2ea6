// Skewed-workload scaling study for the load balancer (rmsbench -skew):
// deliberately pathological per-file cost distributions — one heavy file
// among light ones, and Zipf-distributed costs decoupled from record
// counts — run under two load-balancing policies on identical data. The
// static policy plans once from the a-priori record counts (all the
// paper's balancer knows before the first call) and is exactly what
// saturates on these workloads; the lpt policy is the paper's per-call
// rebalance on measured cost. Everything is measured in deterministic
// modeled op units (counted solver work, critical path over ranks), so
// rows are reproducible across hosts, and every policy must produce
// bit-identical fitted parameters — the load balancer is not allowed to
// buy throughput with numerics.
package bench

import (
	"fmt"
	"math"
	"strings"

	"rms/internal/core"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/sched"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// SkewRow is one (scenario, policy) measurement.
type SkewRow struct {
	Scenario string
	// Policy is "serial", "static" or "lpt".
	Policy string
	// Ranks is the simulated node count of the run.
	Ranks int
	// ModeledOps is the fit's total modeled parallel work (critical path
	// over ranks — deterministic).
	ModeledOps float64
	// Speedup is serial ModeledOps / this row's (parallel speedup).
	Speedup float64
	// Efficiency is Speedup / Ranks — the scaling-efficiency column.
	Efficiency float64
	// BitIdentical reports whether the fitted parameters equal the
	// serial fit's bit for bit.
	BitIdentical bool
}

// SkewConfig shapes the skewed-workload study.
type SkewConfig struct {
	// Variants sizes the kinetic model (default 16; min 8).
	Variants int
	// Files sizes the zipf corpus (default 20); the one-heavy corpus is
	// capped at 12 files so its dominant file stays the critical path.
	Files int
	// Ranks is the simulated node count (default 8).
	Ranks int
	// MaxIter bounds the LM fit per policy (default 2 — enough calls for
	// lpt to re-plan several times).
	MaxIter int
	// Metrics, when non-nil, receives the estimator telemetry of every
	// run (accumulated).
	Metrics *telemetry.Registry
}

func (c SkewConfig) withDefaults() SkewConfig {
	if c.Variants == 0 {
		c.Variants = 16
	}
	if c.Files == 0 {
		c.Files = 20
	}
	if c.Ranks == 0 {
		c.Ranks = 8
	}
	if c.MaxIter == 0 {
		c.MaxIter = 2
	}
	return c
}

// skewCurve is the synthetic observable, shared by every file.
func skewCurve(t float64) float64 { return 1 - 1/(1+t*t) }

// skewFiles builds one scenario's corpus. True per-file solve cost
// scales with the integration window (the adaptive solver pays per unit
// of time span, not per record), while record counts — the only cost
// signal a static planner has — carry none of it: they vary by ~40%
// while true costs span ~6x. The zipf scenario then places its heavy
// head adversarially, on exactly the files the record-count LPT packs
// onto one rank — the clustered-stiffness case (a flame front's
// expensive cells are spatially contiguous, so a cost-blind
// decomposition lands them together). A static plan admits this worst
// case by construction; only measurement undoes it.
func skewFiles(scenario string, n, ranks int) []*dataset.File {
	if scenario == "oneheavy" && n > 12 {
		n = 12
	}
	// Near-uniform record counts, strictly decreasing so the static
	// record-count LPT is deterministic and tie-free.
	records := make([]int, n)
	recf := make([]float64, n)
	for i := range records {
		records[i] = 12 + (n - i)
		recf[i] = float64(records[i])
	}
	windows := make([]float64, n)
	switch scenario {
	case "oneheavy":
		// One dominant file with few records: saturation-bound — its
		// solve IS the critical path under any plan, so rebalancing can
		// only pack the light files around it.
		for i := range windows {
			windows[i] = 0.003
			records[i] = 40
		}
		windows[0] = 1000
		records[0] = 10
	default: // "zipf"
		// Zipf-distributed windows, w_j ∝ 1/(j+1)^5 over six decades.
		// Solve cost is a saturating function of the window: it clips at
		// a ceiling once past the system's relaxation (the solver
		// strides through equilibrium) and at a startup floor for tiny
		// windows, so the steep Zipf realizes as a cluster of
		// comparably-heavy head files over a much cheaper tail — while
		// no single file exceeds a 1/ranks share of total cost, so an
		// ideal plan stays balance-bound rather than saturation-bound.
		mags := make([]float64, n)
		for j := range mags {
			mags[j] = 30000 / math.Pow(float64(j+1), 5)
			if mags[j] < 0.002 {
				mags[j] = 0.002
			}
		}
		// Adversarial co-location: the record-count plan's rank-0 files
		// get the heaviest windows, the rest follow in plan order.
		order := []int{}
		for _, items := range sched.LPT(recf, ranks) {
			for _, it := range items {
				order = append(order, it.File)
			}
		}
		for idx, fi := range order {
			windows[fi] = mags[idx]
		}
	}
	files := make([]*dataset.File, n)
	for i := 0; i < n; i++ {
		files[i] = dataset.Synthesize(skewCurve, dataset.SynthesizeOptions{
			Name:    fmt.Sprintf("%s%02d", scenario, i),
			Records: records[i],
			T0:      0, T1: windows[i],
			Seed: int64(i),
		})
	}
	return files
}

// Skew runs the skewed-workload scaling study: for each scenario, a
// serial reference fit plus one fit per scheduling policy, all on
// identical data from identical starting parameters.
func Skew(cfg SkewConfig) ([]SkewRow, error) {
	cfg = cfg.withDefaults()
	net, err := vulcan.Network(cfg.Variants)
	if err != nil {
		return nil, err
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		return nil, err
	}
	kTrue, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		return nil, err
	}
	model := res.Model(vulcan.CrosslinkProperty(res.System), ode.Options{RTol: 1e-7, ATol: 1e-10})
	start := make([]float64, len(kTrue))
	lower := make([]float64, len(kTrue))
	upper := make([]float64, len(kTrue))
	// Modest bounds: trial points far from the true rates make the long-
	// window head files dramatically stiffer (step-size underflow risk)
	// without telling us anything about scheduling.
	for i, v := range kTrue {
		start[i] = 1.3 * v
		lower[i] = 0.5 * v
		upper[i] = 2 * v
	}
	fitOpts := nlopt.Options{MaxIter: cfg.MaxIter, RelStep: 1e-4}

	type outcome struct {
		x   []float64
		ops float64
	}
	fit := func(files []*dataset.File, ecfg estimator.Config) (outcome, error) {
		ecfg.Metrics = cfg.Metrics
		est, err := estimator.New(model, files, ecfg)
		if err != nil {
			return outcome{}, err
		}
		defer est.Close()
		r, err := est.Estimate(start, lower, upper, fitOpts)
		if err != nil {
			return outcome{}, err
		}
		return outcome{x: r.X, ops: est.ModeledOps()}, nil
	}

	var rows []SkewRow
	for _, scenario := range []string{"zipf", "oneheavy"} {
		serial, err := fit(skewFiles(scenario, cfg.Files, cfg.Ranks), estimator.Config{Ranks: 1})
		if err != nil {
			return nil, fmt.Errorf("%s serial: %w", scenario, err)
		}
		rows = append(rows, SkewRow{
			Scenario: scenario, Policy: "serial", Ranks: 1,
			ModeledOps: serial.ops, Speedup: 1, Efficiency: 1, BitIdentical: true,
		})
		for _, pol := range []sched.Policy{sched.PolicyStatic, sched.PolicyLPT} {
			name := pol.String()
			out, err := fit(skewFiles(scenario, cfg.Files, cfg.Ranks), estimator.Config{
				Ranks: cfg.Ranks, Policy: pol,
			})
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", scenario, name, err)
			}
			bit := len(out.x) == len(serial.x)
			for i := range out.x {
				if out.x[i] != serial.x[i] {
					bit = false
				}
			}
			rows = append(rows, SkewRow{
				Scenario: scenario, Policy: name, Ranks: cfg.Ranks,
				ModeledOps:   out.ops,
				Speedup:      serial.ops / out.ops,
				Efficiency:   serial.ops / out.ops / float64(cfg.Ranks),
				BitIdentical: bit,
			})
		}
	}
	return rows, nil
}

// SkewSpeedupOverStatic returns lpt's throughput gain over the static
// plan for one scenario (0 when the rows are missing) — the acceptance
// measure the verdict line prints.
func SkewSpeedupOverStatic(rows []SkewRow, scenario string) float64 {
	var static, dyn float64
	for _, r := range rows {
		if r.Scenario != scenario {
			continue
		}
		switch r.Policy {
		case "static":
			static = r.ModeledOps
		case "lpt":
			dyn = r.ModeledOps
		}
	}
	if static == 0 || dyn == 0 {
		return 0
	}
	return static / dyn
}

// FormatSkew renders the skewed-workload scaling table.
func FormatSkew(rows []SkewRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-8s %-12s %-9s %-8s %-6s"+NL,
		"scenario", "policy", "ranks", "modeled ops", "speedup", "effic", "bitid")
	for _, r := range rows {
		bit := "yes"
		if !r.BitIdentical {
			bit = "NO"
		}
		fmt.Fprintf(&b, "%-10s %-8s %-8d %-12.4g %-9s %-8s %-6s"+NL,
			r.Scenario, r.Policy, r.Ranks, r.ModeledOps,
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.0f%%", 100*r.Efficiency), bit)
	}
	for _, scenario := range []string{"zipf", "oneheavy"} {
		if gain := SkewSpeedupOverStatic(rows, scenario); gain > 0 {
			verdict := "MISS (<1.5x)"
			if gain >= 1.5 {
				verdict = "ok (>=1.5x)"
			}
			if scenario == "oneheavy" {
				// The one-heavy scenario is saturation-bound (one file IS
				// the critical path); no target applies.
				verdict = "saturation-bound"
			}
			fmt.Fprintf(&b, "%s: lpt vs static %.2fx — %s"+NL, scenario, gain, verdict)
		}
	}
	b.WriteString("speedup/effic vs the serial fit in deterministic modeled ops; costs are" + NL)
	b.WriteString("counted solver work, critical path over ranks (docs/load-balancing.md)" + NL)
	return b.String()
}
