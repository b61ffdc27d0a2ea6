// Package bench is the harness that regenerates the paper's evaluation:
// Table 1 (operation counts, compile status and execution time across the
// five vulcanization test cases, with and without the algebraic/CSE
// optimizations) and Table 2 (parallel speedup over 16 experimental data
// files with and without dynamic load balancing). Both cmd/rmsbench and
// the repository's Go benchmarks drive this package.
package bench

import (
	"fmt"
	"strings"
	"time"

	"rms/internal/ccomp"
	"rms/internal/codegen"
	"rms/internal/core"
	"rms/internal/dataset"
	"rms/internal/eqgen"
	"rms/internal/estimator"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/sched"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// Table1Row is one test-case column of the paper's Table 1.
type Table1Row struct {
	Case      vulcan.Case
	Variants  int // the size actually built (scaled or paper)
	Equations int

	// Static op counts.
	RawMuls, RawAdds int
	OptMuls, OptAdds int
	PreludeOps       int
	Temps            int

	// Modeled compile status (xlc memory model, 4.5 GB thin node):
	// the best -O level for the paper's published op counts for this case
	// (reproducing Table 1's compile/fail pattern), and for our measured
	// counts extrapolated to paper scale.
	PaperRawLevel, PaperOptLevel int
	OursRawLevel, OursOptLevel   int

	// Execution time per RHS evaluation, nanoseconds.
	RawNsPerEval   float64
	CCompNsPerEval float64 // raw code through ccomp at its best level, 0 if uncompilable
	OptNsPerEval   float64

	// Speedup of the optimized code over the raw code.
	Speedup float64
}

// Table1Config shapes the Table 1 run.
type Table1Config struct {
	// Paper uses the paper-scale sizes (static counts only — no timing at
	// 250k equations); otherwise the scaled sizes run with timing.
	Paper bool
	// MinEvalTime is how long to time each configuration (default 300ms).
	MinEvalTime time.Duration
	// Cases restricts the run (nil = all five).
	Cases []vulcan.Case
}

// Table1 builds each test case and measures the Table 1 quantities.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	cases := cfg.Cases
	if cases == nil {
		cases = vulcan.Cases
	}
	if cfg.MinEvalTime == 0 {
		cfg.MinEvalTime = 300 * time.Millisecond
	}
	var rows []Table1Row
	for _, c := range cases {
		v := c.ScaledVariants
		if cfg.Paper {
			v = c.PaperVariants
		}
		row, err := table1Case(c, v, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func table1Case(c vulcan.Case, variants int, cfg Table1Config) (Table1Row, error) {
	row := Table1Row{Case: c, Variants: variants}
	if cfg.Paper {
		// Paper-scale: static op counts only — skip the tapes and the C
		// text, which would cost gigabytes at 250k equations.
		sys, err := vulcan.System(variants)
		if err != nil {
			return row, err
		}
		row.Equations = sys.NumEquations()
		row.RawMuls, row.RawAdds = sys.TotalOps()
		z := opt.Optimize(sys, opt.Full())
		row.OptMuls, row.OptAdds = z.CountOps()
		pm, pa := z.PreludeOps()
		row.PreludeOps = pm + pa
		row.Temps = len(z.Temps)
		fillCompileLevels(&row, c, variants)
		return row, nil
	}
	net, err := vulcan.Network(variants)
	if err != nil {
		return row, err
	}
	raw, err := core.CompileNetwork(net, core.Config{Optimize: opt.LevelNone})
	if err != nil {
		return row, err
	}
	net2, err := vulcan.Network(variants)
	if err != nil {
		return row, err
	}
	full, err := core.CompileNetwork(net2, core.Config{Optimize: opt.Full()})
	if err != nil {
		return row, err
	}
	row.Equations = raw.System.NumEquations()
	row.RawMuls, row.RawAdds = raw.System.TotalOps()
	row.OptMuls, row.OptAdds = full.Optimized.CountOps()
	pm, pa := full.Optimized.PreludeOps()
	row.PreludeOps = pm + pa
	row.Temps = len(full.Optimized.Temps)

	fillCompileLevels(&row, c, variants)

	if !cfg.Paper {
		row.RawNsPerEval = timeEvals(raw.Tape, cfg.MinEvalTime)
		row.OptNsPerEval = timeEvals(full.Tape, cfg.MinEvalTime)
		if row.OptNsPerEval > 0 {
			row.Speedup = row.RawNsPerEval / row.OptNsPerEval
		}
		// "With C compiler optimizations only": run the raw C through the
		// simulated xlc at its best level (only meaningful where the
		// paper-scale size admits an optimizing level at all).
		if row.PaperRawLevel > 0 {
			res, _, err := ccomp.CompileBestEffort(codegen.EmitC(raw.Optimized, "ode_fcn"), 0)
			if err == nil {
				row.CCompNsPerEval = timeEvals(res.Program, cfg.MinEvalTime)
			}
		}
	}
	return row, nil
}

// fillCompileLevels models the xlc compile status with the paper's
// 4.5 GB budget. The paper columns apply the model to the published
// Table 1 op counts; the "ours" columns extrapolate our measured counts
// linearly to paper scale (the network is linear in the family size).
func fillCompileLevels(row *Table1Row, c vulcan.Case, variants int) {
	pc := paperCounts[c.Name]
	row.PaperRawLevel = bestLevel(int64(pc.rawMuls + pc.rawAdds))
	row.PaperOptLevel = bestLevel(int64(pc.optMuls + pc.optAdds))
	scale := float64(c.PaperVariants) / float64(variants)
	row.OursRawLevel = bestLevel(int64(float64(row.RawMuls+row.RawAdds) * scale))
	row.OursOptLevel = bestLevel(int64(float64(row.OptMuls+row.OptAdds) * scale))
}

// bestLevel returns the highest -O level at which a program of the given
// op count fits the default budget, or -1.
func bestLevel(ops int64) int {
	for level := 4; level >= 0; level-- {
		if ops <= ccomp.MaxOpsAtLevel(level, 0) {
			return level
		}
	}
	return -1
}

// timeEvals measures nanoseconds per RHS evaluation.
func timeEvals(prog *codegen.Program, minTime time.Duration) float64 {
	ev := prog.NewEvaluator()
	y, k := benchInputs(prog)
	dy := make([]float64, prog.NumY)
	// Warm up (runs the prelude once).
	ev.Eval(y, k, dy)
	evals := 0
	start := time.Now()
	for time.Since(start) < minTime {
		for i := 0; i < 16; i++ {
			ev.Eval(y, k, dy)
		}
		evals += 16
	}
	return float64(time.Since(start).Nanoseconds()) / float64(evals)
}

// benchInputs builds the fixed state and rate vectors all timing and
// bit-identity checks share.
func benchInputs(prog *codegen.Program) (y, k []float64) {
	y = make([]float64, prog.NumY)
	for i := range y {
		y[i] = 0.5 + 0.001*float64(i%17)
	}
	k = make([]float64, prog.NumK)
	for i := range k {
		k[i] = 0.3 + 0.1*float64(i)
	}
	return y, k
}

// paperCounts holds the paper's published Table 1 numbers.
var paperCounts = map[string]struct {
	eqs, rawMuls, rawAdds, optMuls, optAdds int
}{
	"case1": {450, 2670, 1770, 629, 761},
	"case2": {10000, 85500, 36600, 7450, 22800},
	"case3": {24500, 229000, 94800, 11800, 56800},
	"case4": {125000, 1320000, 520000, 22000, 125000},
	"case5": {250000, 2400000, 974000, 32400, 201000},
}

// FormatTable1 renders the rows in the layout of the paper's Table 1,
// with the paper's reported numbers alongside for comparison.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %-12s %-12s %-12s %-12s %-10s %-10s %-16s %-9s\n",
		"case", "equations", "raw *", "raw +/-", "opt *", "opt +/-",
		"xlc(raw)", "xlc(opt)", "ns/eval r/x/o", "speedup")
	for _, r := range rows {
		nsCol := "-"
		spCol := "-"
		if r.OptNsPerEval > 0 {
			x := "-"
			if r.CCompNsPerEval > 0 {
				x = fmt.Sprintf("%.0f", r.CCompNsPerEval)
			}
			nsCol = fmt.Sprintf("%.0f/%s/%.0f", r.RawNsPerEval, x, r.OptNsPerEval)
			spCol = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(&b, "%-8s %-10d %-12d %-12d %-12d %-12d %-10s %-10s %-16s %-9s\n",
			r.Case.Name, r.Equations, r.RawMuls, r.RawAdds, r.OptMuls, r.OptAdds,
			compileStatus(r.PaperRawLevel), compileStatus(r.PaperOptLevel), nsCol, spCol)
		p := paperCounts[r.Case.Name]
		fmt.Fprintf(&b, "%-8s %-10d %-12d %-12d %-12d %-12d (paper, full scale)\n",
			"  paper", p.eqs, p.rawMuls, p.rawAdds, p.optMuls, p.optAdds)
	}
	// The §3.3 capacity claim with our measured op densities: the largest
	// system (in equations) the modeled 4.5 GB xlc can hold, raw vs
	// optimized.
	last := rows[len(rows)-1]
	rawDensity := float64(last.RawMuls+last.RawAdds) / float64(last.Equations)
	optDensity := float64(last.OptMuls+last.OptAdds) / float64(last.Equations)
	capOps := float64(ccomp.MaxOpsAtLevel(0, 0))
	fmt.Fprintf(&b, "capacity at -O0 (our op densities): raw ≈ %.0f equations, optimized ≈ %.0f equations (%.1fx larger)\n",
		capOps/rawDensity, capOps/optDensity, rawDensity/optDensity)
	fmt.Fprintf(&b, "paper: \"we can compile programs at least 10 times larger using our optimizations\"\n")
	return b.String()
}

func compileStatus(level int) string {
	if level < 0 {
		return "error"
	}
	return fmt.Sprintf("ok(-O%d)", level)
}

// Table2Row is one node-count row of the paper's Table 2.
type Table2Row struct {
	Ranks int
	// Modeled parallel seconds (critical path over ranks) without and
	// with dynamic load balancing, and the corresponding speedups over
	// the 1-rank time.
	TimeStatic, TimeLB       float64
	SpeedupStatic, SpeedupLB float64
	// Wall-clock seconds, for reference (this host may have fewer
	// physical cores than ranks).
	WallStatic, WallLB float64
}

// Table2Config shapes the Table 2 run.
type Table2Config struct {
	// Variants sizes the kinetic model (default 16).
	Variants int
	// Files is the experimental-file count (default 16, as in §5.1).
	Files int
	// Records is the base record count per file; files vary around it to
	// create the imbalance (default 400; the paper's files carry >3000,
	// scaled down for bench time).
	Records int
	// Calls is the number of objective evaluations per configuration
	// (default 3; the first uses the static assignment, later ones see
	// the rebalanced one).
	Calls int
	// RankCounts lists the node counts (default 1,2,4,8,16).
	RankCounts []int
	// Metrics, when non-nil, receives the estimator/solver/MPI telemetry
	// of every configuration (accumulated across the whole sweep).
	Metrics *telemetry.Registry
}

// Table2 measures the parallel objective across rank counts.
func Table2(cfg Table2Config) ([]Table2Row, error) {
	if cfg.Variants == 0 {
		cfg.Variants = 16
	}
	if cfg.Files == 0 {
		cfg.Files = 16
	}
	if cfg.Records == 0 {
		cfg.Records = 400
	}
	if cfg.Calls == 0 {
		cfg.Calls = 3
	}
	if cfg.RankCounts == nil {
		cfg.RankCounts = []int{1, 2, 4, 8, 16}
	}

	net, err := vulcan.Network(cfg.Variants)
	if err != nil {
		return nil, err
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		return nil, err
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		return nil, err
	}
	prop := vulcan.CrosslinkProperty(res.System)
	files := syntheticFiles(cfg.Files, cfg.Records)
	model := res.Model(prop, ode.Options{RTol: 1e-7, ATol: 1e-10})

	// One shared op-rate calibration so the displayed modeled seconds are
	// consistent across configurations (the work counts themselves are
	// deterministic).
	secPerOp := timeEvals(res.Tape, 100*time.Millisecond)
	m, a := res.Tape.CountOps()
	secPerOp /= float64(m+a+2*res.Tape.NumY) * 1e9 // ns -> s per op

	measure := func(ranks int, lb bool) (modelSec, wallSec float64, err error) {
		ecfg := estimator.Config{Ranks: ranks, Metrics: cfg.Metrics}
		if lb {
			ecfg.Policy = sched.PolicyLPT
		}
		est, err := estimator.New(model, files, ecfg)
		if err != nil {
			return 0, 0, err
		}
		defer est.Close()
		resid := make([]float64, est.ResidualDim())
		for call := 0; call < cfg.Calls; call++ {
			if err := est.Objective(k, resid); err != nil {
				return 0, 0, err
			}
		}
		return est.ModeledOps() * secPerOp, est.WallSeconds(), nil
	}

	var rows []Table2Row
	var baseStatic, baseLB float64
	for _, ranks := range cfg.RankCounts {
		ms, ws, err := measure(ranks, false)
		if err != nil {
			return nil, err
		}
		ml, wl, err := measure(ranks, true)
		if err != nil {
			return nil, err
		}
		if ranks == cfg.RankCounts[0] {
			baseStatic, baseLB = ms, ml
		}
		rows = append(rows, Table2Row{
			Ranks:         ranks,
			TimeStatic:    ms,
			TimeLB:        ml,
			SpeedupStatic: baseStatic / ms,
			SpeedupLB:     baseLB / ml,
			WallStatic:    ws,
			WallLB:        wl,
		})
	}
	return rows, nil
}

// syntheticFiles builds the 16-file corpus with record counts (and cure
// windows) ramping from a quarter of the base to about twice it —
// formulations measured to different cure depths cost very different
// solve times, the imbalance §5.4 attributes the sub-linear static
// speedup to. The ramp makes contiguous block distribution systematically
// unbalanced (later blocks are heavier) while LPT evens it out.
func syntheticFiles(n, baseRecords int) []*dataset.File {
	curve := func(t float64) float64 { return 1 - 1/(1+t*t) } // placeholder shape
	files := make([]*dataset.File, n)
	for i := 0; i < n; i++ {
		records := baseRecords/4 + (2*baseRecords*i)/n
		if records < 32 {
			records = 32
		}
		files[i] = dataset.Synthesize(curve, dataset.SynthesizeOptions{
			Name:    fmt.Sprintf("exp%02d", i+1),
			Records: records,
			T0:      0, T1: 2 * float64(records) / float64(baseRecords),
			Seed: int64(i),
		})
	}
	return files
}

// NL is the line terminator used by the table formatters.
const NL = "\n"

// SweepRow is one redundancy level of the workload-sensitivity sweep.
type SweepRow struct {
	// SiteScale multiplies every reaction class's equivalent-site count.
	SiteScale        int
	RawMuls, RawAdds int
	OptMuls, OptAdds int
	// Kept is (optimized ops)/(raw ops).
	Kept float64
}

// RedundancySweep measures how the optimizer's kept-op fraction falls as
// the mechanism's equivalent-site redundancy rises — the workload axis
// separating this suite's synthetic models (kept ≈ 21% at scale 1) from
// the paper's proprietary ones (6.9%).
func RedundancySweep(variants int, scales []int) ([]SweepRow, error) {
	if scales == nil {
		scales = []int{1, 2, 4, 8}
	}
	var rows []SweepRow
	for _, sc := range scales {
		net, err := vulcan.NetworkWithRedundancy(variants, sc)
		if err != nil {
			return nil, err
		}
		sys := eqgen.FromNetwork(net)
		rm, ra := sys.TotalOps()
		z := opt.Optimize(sys, opt.Full())
		om, oa := z.CountOps()
		rows = append(rows, SweepRow{
			SiteScale: sc,
			RawMuls:   rm, RawAdds: ra,
			OptMuls: om, OptAdds: oa,
			Kept: float64(om+oa) / float64(rm+ra),
		})
	}
	return rows, nil
}

// FormatSweep renders the sweep table.
func FormatSweep(rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-12s %-12s %-8s"+NL,
		"sitescale", "raw *", "raw +/-", "opt *", "opt +/-", "kept")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %-12d %-12d %-12d %-12d %-8.3f"+NL,
			r.SiteScale, r.RawMuls, r.RawAdds, r.OptMuls, r.OptAdds, r.Kept)
	}
	b.WriteString("paper's proprietary mechanisms: kept = 0.069 at 250k equations" + NL)
	return b.String()
}

// AblationRow is one optimizer-pass configuration's op counts.
type AblationRow struct {
	Name       string
	Muls, Adds int
	Ratio      float64
	Temps      int
}

// Ablation measures each rung of the optimizer ladder on one
// vulcanization case, quantifying each pass's contribution.
func Ablation(variants int) ([]AblationRow, int, int, error) {
	sys, err := vulcan.System(variants)
	if err != nil {
		return nil, 0, 0, err
	}
	rawM, rawA := sys.TotalOps()
	configs := []struct {
		name  string
		level opt.Level
	}{
		{"none (raw)", opt.LevelNone},
		{"simplify (§3.1)", opt.LevelSimplify},
		{"simplify+distribute (§3.2)", opt.LevelDistribute},
		{"paper: +CSE on sums (§3.3)", opt.LevelPaper},
		{"paper+products", opt.LevelProducts},
		{"paper+products+hoist (full)", opt.LevelFull},
	}
	var rows []AblationRow
	for _, c := range configs {
		z := opt.Optimize(sys, c.level)
		m, a := z.CountOps()
		rows = append(rows, AblationRow{
			Name: c.name, Muls: m, Adds: a,
			Ratio: float64(m+a) / float64(rawM+rawA),
			Temps: len(z.Temps),
		})
	}
	return rows, rawM, rawA, nil
}

// FormatAblation renders the ablation table.
func FormatAblation(rows []AblationRow, rawM, rawA int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "raw baseline: %d muls, %d adds"+NL, rawM, rawA)
	fmt.Fprintf(&b, "%-44s %-10s %-10s %-8s %-8s"+NL, "passes", "muls", "adds", "ratio", "temps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %-10d %-10d %-8.3f %-8d"+NL, r.Name, r.Muls, r.Adds, r.Ratio, r.Temps)
	}
	return b.String()
}

// FormatTable2 renders rows in the paper's Table 2 layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-14s %-12s %-14s %-12s %-20s\n",
		"nodes", "time (no LB)", "speedup", "time (LB)", "speedup", "wall (noLB/LB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %-14.3f %-12.2f %-14.3f %-12.2f %.2fs / %.2fs\n",
			r.Ranks, r.TimeStatic, r.SpeedupStatic, r.TimeLB, r.SpeedupLB,
			r.WallStatic, r.WallLB)
	}
	b.WriteString(`paper (IBM SP, 16 files):
nodes   time(noLB)  speedup   time(LB)  speedup
1       15459       1.00      15459     1.00
2       7619        1.99      7784      2.03
4       3874        3.91      3598      3.99
8       1935        7.08      2183      7.99
16      1210        12.78     1210      12.78
`)
	return b.String()
}
