// Benchmarks regenerating the paper's evaluation artifacts. Each Table 1
// row group and the Table 2 sweep has a corresponding benchmark;
// cmd/rmsbench prints the same data in the paper's layout.
//
//	go test -bench=. -benchmem
package rms

import (
	"fmt"
	"testing"

	"rms/internal/bench"
	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/eqgen"
	"rms/internal/estimator"
	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/rdl"
	"rms/internal/sched"
	"rms/internal/vulcan"
)

// buildCase compiles one scaled Table 1 test case at both optimization
// extremes.
func buildCase(b *testing.B, variants int, level opt.Level) *Result {
	b.Helper()
	net, err := vulcan.Network(variants)
	if err != nil {
		b.Fatal(err)
	}
	res, err := CompileNetwork(net, Config{Optimize: level})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func evalInputs(prog *codegen.Program) (y, k, dy []float64) {
	y = make([]float64, prog.NumY)
	for i := range y {
		y[i] = 0.5 + 0.001*float64(i%17)
	}
	k = make([]float64, prog.NumK)
	for i := range k {
		k[i] = 0.3 + 0.1*float64(i)
	}
	return y, k, make([]float64, prog.NumY)
}

// BenchmarkTable1RHS measures the execution-time rows of Table 1: the
// cost of one right-hand-side evaluation for each test case, with and
// without the algebraic/CSE optimizations.
func BenchmarkTable1RHS(b *testing.B) {
	for _, c := range vulcan.Cases {
		for _, mode := range []struct {
			name  string
			level opt.Level
		}{{"raw", opt.LevelNone}, {"optimized", opt.Full()}} {
			b.Run(fmt.Sprintf("%s/%s", c.Name, mode.name), func(b *testing.B) {
				res := buildCase(b, c.ScaledVariants, mode.level)
				ev := res.Tape.NewEvaluator()
				y, k, dy := evalInputs(res.Tape)
				m, a := res.Tape.CountOps()
				b.ReportMetric(float64(m+a), "ops/eval")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.Eval(y, k, dy)
				}
			})
		}
	}
}

// BenchmarkSparseLU measures the stiff solver's sparse Newton kernels on
// the iteration matrices M = I − hβ·J of the 12-, 20- and 35-variant
// vulcanization models at the true rates: one numeric refactorization
// over the one-time symbolic pattern, and one pair of triangular solves.
func BenchmarkSparseLU(b *testing.B) {
	for _, variants := range []int{12, 20, 35} {
		net, err := vulcan.Network(variants)
		if err != nil {
			b.Fatal(err)
		}
		res, err := CompileNetwork(net, Config{Optimize: opt.Full(), AnalyticJacobian: true})
		if err != nil {
			b.Fatal(err)
		}
		k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
		if err != nil {
			b.Fatal(err)
		}
		y, _, rhs := evalInputs(res.Tape)
		jp := res.Jacobian
		m := jp.PatternCSR()
		jp.NewEvaluator().EvalCSR(y, k, m)
		const hb = 1e-3
		for p := range m.Data {
			m.Data[p] *= -hb
		}
		for i := 0; i < jp.N; i++ {
			m.Data[m.Index(i, i)]++
		}
		slu, err := linalg.NewSparseLU(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("v%d/refactor", variants), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := slu.Refactor(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("v%d/solve", variants), func(b *testing.B) {
			if err := slu.Refactor(m); err != nil {
				b.Fatal(err)
			}
			for i := range rhs {
				rhs[i] = 1 + 0.01*float64(i%13)
			}
			x := make([]float64, len(rhs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := slu.SolveTo(x, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Optimizer measures the chemical compiler's own cost:
// generating and optimizing each test case.
func BenchmarkTable1Optimizer(b *testing.B) {
	for _, c := range vulcan.Cases[:3] { // the larger cases dominate bench time
		b.Run(c.Name, func(b *testing.B) {
			sys, err := vulcan.System(c.ScaledVariants)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Optimize(sys, opt.Full())
			}
		})
	}
}

// BenchmarkTable2Objective measures one parallel objective evaluation at
// each node count of Table 2, with and without dynamic load balancing.
func BenchmarkTable2Objective(b *testing.B) {
	res := buildCase(b, 12, opt.Full())
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		b.Fatal(err)
	}
	prop := vulcan.CrosslinkProperty(res.System)
	files := make([]*dataset.File, 16)
	for i := range files {
		files[i] = dataset.Synthesize(func(t float64) float64 { return t },
			dataset.SynthesizeOptions{
				Name:    fmt.Sprintf("f%02d", i),
				Records: 40 + (i*29)%97,
				T0:      0, T1: 1,
				Seed: int64(i),
			})
	}
	model := res.Model(prop, ode.Options{RTol: 1e-6, ATol: 1e-9})
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		for _, lb := range []bool{false, true} {
			name := fmt.Sprintf("ranks%d/lb=%v", ranks, lb)
			b.Run(name, func(b *testing.B) {
				cfg := estimator.Config{Ranks: ranks}
				if lb {
					cfg.Policy = sched.PolicyLPT
				}
				est, err := estimator.New(model, files, cfg)
				if err != nil {
					b.Fatal(err)
				}
				resid := make([]float64, est.ResidualDim())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := est.Objective(k, resid); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if est.Calls() > 0 {
					b.ReportMetric(est.ModeledOps()/float64(est.Calls()), "modeled-ops/call")
				}
			})
		}
	}
}

// BenchmarkDistOpt measures the Fig. 6 factoring pass alone.
func BenchmarkDistOpt(b *testing.B) {
	sys, err := vulcan.System(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eq := range sys.Equations {
			opt.DistOpt(eq.RHS)
		}
	}
}

// BenchmarkSolvers compares the two IMSL-replacement integrators on the
// vulcanization kinetics, then times the stiff one on the estimator's
// record grid.
func BenchmarkSolvers(b *testing.B) {
	res := buildCase(b, 10, opt.Full())
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		b.Fatal(err)
	}
	n := len(res.System.Y0)
	for _, mode := range []string{"adams-gear", "runge-kutta-verner"} {
		b.Run(mode, func(b *testing.B) {
			ev := res.Tape.NewEvaluator()
			rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
			for i := 0; i < b.N; i++ {
				y := append([]float64(nil), res.System.Y0...)
				var err error
				if mode == "adams-gear" {
					err = ode.NewBDF(rhs, n, ode.Options{RTol: 1e-6, ATol: 1e-9}).Integrate(0, 1, y)
				} else {
					err = ode.NewRKV65(rhs, n, ode.Options{RTol: 1e-6, ATol: 1e-9}).Integrate(0, 1, y)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// adams-gear-records is the estimator's per-file loop on a warm
	// solver: each iteration restarts at t = 0 and continues record to
	// record over a 50-record grid, so ns/op and allocs/op are the hot
	// path's, without the solver's construction.
	b.Run("adams-gear-records", func(b *testing.B) {
		ev := res.Tape.NewEvaluator()
		rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
		s := ode.NewBDF(rhs, n, ode.Options{RTol: 1e-6, ATol: 1e-9})
		y := make([]float64, n)
		const records = 50
		grid := func() {
			copy(y, res.System.Y0)
			for r := 0; r < records; r++ {
				if err := s.Integrate(float64(r)/records, float64(r+1)/records, y); err != nil {
					b.Fatal(err)
				}
			}
		}
		grid()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			grid()
		}
	})
}

// BenchmarkEstimator measures a small end-to-end parameter fit.
func BenchmarkEstimator(b *testing.B) {
	n := network.New()
	n.AddSpecies("A", "", 1)
	n.AddSpecies("B", "", 0)
	n.AddReaction("r", "K_d", []string{"A"}, []string{"B"})
	sys := eqgen.FromNetwork(n)
	z := opt.Optimize(sys, opt.Full())
	prog, err := codegen.Compile(z)
	if err != nil {
		b.Fatal(err)
	}
	file := dataset.Synthesize(func(t float64) float64 { return 1 - 1/(1+t) },
		dataset.SynthesizeOptions{Name: "f", Records: 60, T0: 0, T1: 2})
	model := &estimator.Model{
		Prog: prog, Y0: sys.Y0,
		Property:   func(y []float64) float64 { return y[1] },
		SolverOpts: ode.Options{RTol: 1e-8, ATol: 1e-10},
	}
	for i := 0; i < b.N; i++ {
		est, err := estimator.New(model, []*dataset.File{file}, estimator.Config{Ranks: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := est.Estimate([]float64{0.3}, []float64{0.01}, []float64{10},
			nlopt.Options{MaxIter: 25, RelStep: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontEnd measures the chemical compiler's front half: RDL
// parsing and reaction-network generation with molecule canonicalization.
func BenchmarkFrontEnd(b *testing.B) {
	src := `
species Crosslink{n=2..8} = "C" + "S"*n + "C" init 0.1
species Dangling{m=1..7}  = "C" + "S"*(m-1) + "[S]" init 0

reaction Scission {
    reactants Crosslink{n}
    forall i = 3 .. n-3
    disconnect 1:S[i] 1:S[i+1]
    rate K_sc(n)
}`
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rdl.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generate", func(b *testing.B) {
		prog, err := rdl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := network.Generate(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTable1Shape is the headline check of the reproduction: across the
// scaled test cases the optimizer removes the bulk of the arithmetic and
// the compile-capacity pattern of Table 1 holds under the modeled 4.5 GB
// xlc.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table run is not short")
	}
	rows, err := bench.Table1(bench.Table1Config{
		MinEvalTime: 30e6, // 30ms per timing: enough for the shape check
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		ratio := float64(r.OptMuls+r.OptAdds) / float64(r.RawMuls+r.RawAdds)
		if ratio > 0.35 {
			t.Errorf("%s: op ratio %.3f, want < 0.35", r.Case.Name, ratio)
		}
		if r.Speedup < 2 {
			t.Errorf("%s: speedup %.2f, want > 2", r.Case.Name, r.Speedup)
		}
		// Larger cases must not compile raw at high optimization levels.
		if i >= 2 && r.PaperRawLevel > 0 {
			t.Errorf("%s: raw code compiles at -O%d at paper scale; the paper reports failure",
				r.Case.Name, r.PaperRawLevel)
		}
		// The optimized code always compiles (the §3.3 capacity win).
		if r.PaperOptLevel < 0 {
			t.Errorf("%s: optimized code does not compile at paper scale", r.Case.Name)
		}
	}
	// Case 5 raw must fail at every level — Table 1's "compiler error".
	if last := rows[len(rows)-1]; last.PaperRawLevel >= 0 {
		t.Errorf("case5 raw compiles at -O%d; the paper reports failure at all levels",
			last.PaperRawLevel)
	}
}

// TestTable2Shape checks the load-balancing story: with LB the modeled
// speedup is near-linear through 8 ranks and LB never loses to static
// blocks by more than noise at 16 ranks (where both assign one file per
// rank).
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table run is not short")
	}
	rows, err := bench.Table2(bench.Table2Config{
		Variants: 10, Records: 150, Calls: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	byRanks := map[int]bench.Table2Row{}
	for _, r := range rows {
		byRanks[r.Ranks] = r
	}
	if r8 := byRanks[8]; r8.SpeedupLB < 5.5 {
		t.Errorf("8-rank LB speedup %.2f, want > 5.5 (paper: 7.99)", r8.SpeedupLB)
	}
	if r16 := byRanks[16]; r16.SpeedupLB < 8 {
		t.Errorf("16-rank LB speedup %.2f, want > 8 (paper: 12.78)", r16.SpeedupLB)
	}
	// LB at 8 ranks should beat or match static within 20% noise.
	if r8 := byRanks[8]; r8.TimeLB > r8.TimeStatic*1.2 {
		t.Errorf("8-rank LB time %.3f worse than static %.3f", r8.TimeLB, r8.TimeStatic)
	}
}

// BenchmarkJacobian compares one stiff solve of the vulcanization model
// with finite-difference versus compiled analytic Jacobians (the
// analytic-Jacobian extension's headline measurement).
func BenchmarkJacobian(b *testing.B) {
	net, err := vulcan.Network(12)
	if err != nil {
		b.Fatal(err)
	}
	res, err := CompileNetwork(net, Config{Optimize: opt.Full(), AnalyticJacobian: true})
	if err != nil {
		b.Fatal(err)
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		b.Fatal(err)
	}
	n := len(res.System.Y0)
	for _, mode := range []string{"finite-difference", "analytic"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := res.Tape.NewEvaluator()
				rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
				opts := ode.Options{RTol: 1e-8, ATol: 1e-11}
				if mode == "analytic" {
					je := res.Jacobian.NewEvaluator()
					opts.Jacobian = func(_ float64, y []float64, dst *linalg.Matrix) {
						je.Eval(y, k, dst)
					}
				}
				y := append([]float64(nil), res.System.Y0...)
				if err := ode.NewBDF(rhs, n, opts).Integrate(0, 2, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation times the optimizer at each rung of its ladder on
// a mid-size case (complementing rmsbench -ablate's op counts with
// compile-time cost).
func BenchmarkAblation(b *testing.B) {
	sys, err := vulcan.System(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range []opt.Level{opt.LevelSimplify, opt.LevelDistribute, opt.LevelPaper, opt.LevelFull} {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt.Optimize(sys, level)
			}
		})
	}
}
