// Package integration holds cross-module tests exercising whole pipeline
// paths: RDL source through compilation, simulated-xlc compilation of the
// emitted C, solver-level equivalence of every code path, and full
// parameter-estimation loops.
package integration

import (
	"math"
	"testing"

	"rms/internal/ccomp"
	"rms/internal/codegen"
	"rms/internal/core"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/linalg"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/sched"
	"rms/internal/vulcan"
)

// TestFullPipelineFromRDL drives the quickstart model through every
// artifact and cross-checks the three executable forms: the optimized
// tape, the unoptimized tape, and the ccomp-compiled generated C.
func TestFullPipelineFromRDL(t *testing.T) {
	const src = `
species Bridge = "C[S:1][S:2]C" init 1.0
species Methyl = "[CH3:3]"      init 0.5
reaction Scission {
    reactants Bridge
    disconnect 1:1 1:2
    rate K_sc
}
reaction Cap {
    reactants Bridge, Methyl
    disconnect 1:1 1:2
    connect    1:1 2:3
    rate K_cap
}`
	full, err := core.CompileRDL(src, core.Config{Optimize: opt.Full()})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := core.CompileRDL(src, core.Config{Optimize: opt.LevelNone})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := ccomp.Compile(full.C, ccomp.Options{Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	y := full.System.Y0
	k := []float64{3, 2} // K_cap, K_sc (sorted)
	n := len(y)
	d1 := make([]float64, n)
	d2 := make([]float64, n)
	d3 := make([]float64, n)
	full.Tape.NewEvaluator().Eval(y, k, d1)
	raw.Tape.NewEvaluator().Eval(y, k, d2)
	cres.Program.NewEvaluator().Eval(y, k, d3)
	for i := range d1 {
		if math.Abs(d1[i]-d2[i]) > 1e-12 || math.Abs(d1[i]-d3[i]) > 1e-12 {
			t.Errorf("eq %d: optimized %v, raw %v, ccomp %v", i, d1[i], d2[i], d3[i])
		}
	}
	// The optimizer strictly reduced the op count.
	m1, a1 := full.Tape.CountOps()
	m2, a2 := raw.Tape.CountOps()
	if m1+a1 >= m2+a2 {
		t.Errorf("no reduction: optimized %d ops, raw %d", m1+a1, m2+a2)
	}
}

// TestVulcanizationSolveAllPaths integrates the vulcanization model with
// both solvers, with and without the analytic Jacobian, and demands
// agreement.
func TestVulcanizationSolveAllPaths(t *testing.T) {
	net, err := vulcan.Network(10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{
		Optimize:         opt.Full(),
		AnalyticJacobian: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jacobian == nil {
		t.Fatal("no Jacobian compiled")
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.System.Y0)
	solve := func(useJac, stiff bool) []float64 {
		ev := res.Tape.NewEvaluator()
		rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
		opts := ode.Options{RTol: 1e-9, ATol: 1e-12}
		if useJac {
			je := res.Jacobian.NewEvaluator()
			opts.Jacobian = func(_ float64, y []float64, dst *linalg.Matrix) {
				je.Eval(y, k, dst)
			}
		}
		y := append([]float64(nil), res.System.Y0...)
		var err error
		if stiff {
			err = ode.NewBDF(rhs, n, opts).Integrate(0, 1.5, y)
		} else {
			err = ode.NewRKV65(rhs, n, opts).Integrate(0, 1.5, y)
		}
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	bdfFD := solve(false, true)
	bdfAJ := solve(true, true)
	rkv := solve(false, false)
	for i := range bdfFD {
		scale := math.Max(1e-6, math.Abs(bdfFD[i]))
		if math.Abs(bdfFD[i]-bdfAJ[i])/scale > 1e-5 {
			t.Errorf("species %d: BDF fd %v vs analytic %v", i, bdfFD[i], bdfAJ[i])
		}
		if math.Abs(bdfFD[i]-rkv[i])/scale > 1e-5 {
			t.Errorf("species %d: BDF %v vs RKV %v", i, bdfFD[i], rkv[i])
		}
	}
}

// TestEstimationRecoversVulcanizationRates is the paper's workflow end to
// end: synthesize crosslink curves from ground truth, fit two free rate
// constants with the parallel estimator using the analytic Jacobian.
func TestEstimationRecoversVulcanizationRates(t *testing.T) {
	net, err := vulcan.Network(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{
		Optimize:         opt.Full(),
		AnalyticJacobian: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	kTrue, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		t.Fatal(err)
	}
	prop := vulcan.CrosslinkProperty(res.System)

	// Ground-truth curve via one accurate solve.
	ev := res.Tape.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, kTrue, dy) }
	solver := ode.NewBDF(rhs, len(res.System.Y0), ode.Options{RTol: 1e-10, ATol: 1e-13})
	const samples = 200
	vals := make([]float64, samples+1)
	y := append([]float64(nil), res.System.Y0...)
	vals[0] = prop(y)
	for i := 1; i <= samples; i++ {
		if err := solver.Integrate(1.5*float64(i-1)/samples, 1.5*float64(i)/samples, y); err != nil {
			t.Fatal(err)
		}
		vals[i] = prop(y)
	}
	curve := func(tt float64) float64 {
		x := tt / 1.5 * samples
		i := int(x)
		if i >= samples {
			return vals[samples]
		}
		f := x - float64(i)
		return vals[i]*(1-f) + vals[i+1]*f
	}
	files := []*dataset.File{
		dataset.Synthesize(curve, dataset.SynthesizeOptions{Name: "f1", Records: 80, T0: 0, T1: 1.5}),
		dataset.Synthesize(curve, dataset.SynthesizeOptions{Name: "f2", Records: 50, T0: 0, T1: 1.5, Seed: 1}),
	}
	model := res.Model(prop, ode.Options{RTol: 1e-9, ATol: 1e-12})
	est, err := estimator.New(model, files, estimator.Config{Ranks: 2, Policy: sched.PolicyLPT})
	if err != nil {
		t.Fatal(err)
	}
	nRates := len(res.System.Rates)
	lower := make([]float64, nRates)
	upper := make([]float64, nRates)
	start := make([]float64, nRates)
	free := map[string]bool{"K_cross": true, "K_sc": true}
	for i, name := range res.System.Rates {
		truth := vulcan.TrueRates[name]
		if free[name] {
			lower[i], upper[i], start[i] = truth/8, truth*8, truth*2
		} else {
			lower[i], upper[i], start[i] = truth, truth, truth
		}
	}
	fit, err := est.Estimate(start, lower, upper, nlopt.Options{MaxIter: 40, RelStep: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range res.System.Rates {
		if !free[name] {
			continue
		}
		truth := vulcan.TrueRates[name]
		if math.Abs(fit.X[i]-truth)/truth > 0.02 {
			t.Errorf("%s = %v, want %v within 2%% (rnorm %g)", name, fit.X[i], truth, fit.RNorm)
		}
	}
}

// TestCcompOnVulcanizationC compiles the generated C of a mid-size
// vulcanization case through the simulated xlc at each level and checks
// numeric agreement with the reference tape.
func TestCcompOnVulcanizationC(t *testing.T) {
	net, err := vulcan.Network(12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	y := make([]float64, len(res.System.Y0))
	for i := range y {
		y[i] = 0.1 + 0.02*float64(i%7)
	}
	ref := make([]float64, len(y))
	res.Tape.NewEvaluator().Eval(y, k, ref)
	for _, level := range []int{0, 2, 4} {
		cres, err := ccomp.Compile(res.C, ccomp.Options{Level: level})
		if err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
		got := make([]float64, len(y))
		kc := k
		if cres.Program.NumK != len(k) {
			kc = append(append([]float64{}, k...), make([]float64, cres.Program.NumK-len(k))...)
		}
		cres.Program.NewEvaluator().Eval(y, kc, got)
		for i := range ref {
			if math.Abs(ref[i]-got[i]) > 1e-9*math.Max(1, math.Abs(ref[i])) {
				t.Errorf("-O%d eq %d: %v vs %v", level, i, got[i], ref[i])
			}
		}
		if level >= 2 && cres.EmittedOps > cres.SourceOps {
			t.Errorf("-O%d emitted %d ops from %d source ops", level, cres.EmittedOps, cres.SourceOps)
		}
	}
}

// TestJacobianSpeedsUpEstimator: the analytic Jacobian reduces the
// modeled work of an objective evaluation on a stiff model.
func TestJacobianSpeedsUpEstimator(t *testing.T) {
	net, err := vulcan.Network(10)
	if err != nil {
		t.Fatal(err)
	}
	withJac, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full(), AnalyticJacobian: true})
	if err != nil {
		t.Fatal(err)
	}
	prop := vulcan.CrosslinkProperty(withJac.System)
	k, _ := vulcan.RateVector(withJac.System.Rates, vulcan.TrueRates)
	files := []*dataset.File{
		dataset.Synthesize(func(t float64) float64 { return t }, dataset.SynthesizeOptions{
			Name: "f", Records: 60, T0: 0, T1: 1.5,
		}),
	}
	run := func(jac *codegen.JacobianProgram) float64 {
		model := &estimator.Model{
			Prog: withJac.Tape, Y0: withJac.System.Y0, Property: prop,
			SolverOpts:  ode.Options{RTol: 1e-8, ATol: 1e-11},
			AnalyticJac: jac,
		}
		est, err := estimator.New(model, files, estimator.Config{Ranks: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, est.ResidualDim())
		if err := est.Objective(k, r); err != nil {
			t.Fatal(err)
		}
		return est.ModeledOps()
	}
	fd := run(nil)
	aj := run(withJac.Jacobian)
	if aj >= fd {
		t.Errorf("analytic Jacobian work %v >= finite-difference work %v", aj, fd)
	}
	t.Logf("objective work: finite differences %.3g ops, analytic %.3g ops (%.2fx)",
		fd, aj, fd/aj)
}

// TestConservationAlongSolve: the network's detected linear invariants
// stay constant along a stiff solve of the compiled model — a global
// correctness check spanning the network analysis, the optimizer, the
// code generator and the integrator.
func TestConservationAlongSolve(t *testing.T) {
	net, err := vulcan.Network(10)
	if err != nil {
		t.Fatal(err)
	}
	laws := net.ConservationLaws()
	if len(laws) == 0 {
		t.Fatal("vulcanization network has no detected invariants")
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	ev := res.Tape.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	solver := ode.NewBDF(rhs, len(res.System.Y0), ode.Options{RTol: 1e-9, ATol: 1e-12})
	y := append([]float64(nil), res.System.Y0...)
	initial := make([]float64, len(laws))
	dot := func(c, y []float64) float64 {
		s := 0.0
		for i := range c {
			s += c[i] * y[i]
		}
		return s
	}
	for li, c := range laws {
		initial[li] = dot(c, y)
	}
	for _, tEnd := range []float64{0.5, 1.0, 2.0} {
		if err := solver.Integrate(tEnd-0.5, tEnd, y); err != nil {
			t.Fatal(err)
		}
		for li, c := range laws {
			now := dot(c, y)
			scale := math.Max(1, math.Abs(initial[li]))
			if math.Abs(now-initial[li])/scale > 1e-6 {
				t.Errorf("t=%v: invariant %d drifted %v -> %v (%s)",
					tEnd, li, initial[li], now, net.FormatLaw(c))
			}
		}
	}
}
