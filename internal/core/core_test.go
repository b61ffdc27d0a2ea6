package core

import (
	"math"
	"strings"
	"testing"

	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/sched"
	"rms/internal/vulcan"
)

const decayRDL = `
species A = "[CH3:1][CH3:2]" init 1.0
reaction Decompose {
    reactants A
    disconnect 1:1 1:2
    rate K_d
}
`

func TestCompileRDLEndToEnd(t *testing.T) {
	res, err := CompileRDL(decayRDL, Config{Optimize: opt.Full()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == nil || res.Network == nil || res.System == nil ||
		res.Optimized == nil || res.Tape == nil {
		t.Fatal("incomplete result")
	}
	if len(res.Network.Reactions) != 1 {
		t.Fatalf("reactions: %s", res.Network.Dump())
	}
	if !strings.Contains(res.C, "void ode_fcn(") {
		t.Errorf("C output:\n%s", res.C)
	}
	// Run it: dA/dt = -K_d*A.
	y := res.System.Y0
	k := []float64{2}
	dy := make([]float64, len(y))
	res.Tape.NewEvaluator().Eval(y, k, dy)
	if math.Abs(dy[0]+2) > 1e-12 {
		t.Errorf("dA/dt = %v, want -2", dy[0])
	}
}

func TestCompileBadSource(t *testing.T) {
	if _, err := CompileRDL("species ", Config{}); err == nil {
		t.Error("bad source compiled")
	}
	if _, err := CompileRDL(decayRDL, Config{RCIP: "K_d = "}); err == nil {
		t.Error("bad RCIP compiled")
	}
}

func TestRCIPIntegration(t *testing.T) {
	src := `
species A = "[CH3:1][CH3:2]" init 1.0
species B = "C[S:1][S:2]C"   init 1.0
reaction R1 {
    reactants A
    disconnect 1:1 1:2
    rate K_a
}
reaction R2 {
    reactants B
    disconnect 1:1 1:2
    rate K_b
}
`
	res, err := CompileRDL(src, Config{
		Optimize: opt.Full(),
		RCIP:     "K_a = 4\nK_b = 2 * 2",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Equal values unify to one rate constant.
	if got := len(res.System.Rates); got != 1 {
		t.Errorf("rates after RCIP = %v", res.System.Rates)
	}
}

func TestReport(t *testing.T) {
	net, err := vulcan.Network(12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileNetwork(net, Config{Optimize: opt.Full()})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Equations != 40 {
		t.Errorf("equations = %d", rep.Equations)
	}
	if rep.OptMuls+rep.OptAdds >= rep.RawMuls+rep.RawAdds {
		t.Errorf("no reduction: %s", rep)
	}
	if !strings.Contains(rep.String(), "eqs=40") {
		t.Errorf("report string: %s", rep)
	}
}

func TestEstimateThroughPipeline(t *testing.T) {
	// A -> B, fit K_d to synthetic data through the public pipeline.
	res, err := CompileRDL(decayRDL, Config{
		Optimize: opt.Full(),
		RCIP:     "K_d in [0.01, 10] start 0.4",
	})
	if err != nil {
		t.Fatal(err)
	}
	kTrue := 1.3
	// Property: total methyl-radical concentration. The class labels make
	// [CH3:1] and [CH3:2] distinct product species (y[1] and y[2]), one
	// of each per split, so the observable sums both.
	property := func(y []float64) float64 { return y[1] + y[2] }
	curve := func(tt float64) float64 { return 2 * (1 - math.Exp(-kTrue*tt)) }
	files := []*dataset.File{
		dataset.Synthesize(curve, dataset.SynthesizeOptions{Name: "e1", Records: 40, T0: 0, T1: 2}),
		dataset.Synthesize(curve, dataset.SynthesizeOptions{Name: "e2", Records: 25, T0: 0, T1: 2, Seed: 1}),
	}
	fit, named, err := res.Estimate(files, estimator.Config{Ranks: 2, Policy: sched.PolicyLPT},
		property, ode.Options{RTol: 1e-10, ATol: 1e-12},
		nlopt.Options{MaxIter: 60, RelStep: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(named["K_d"]-kTrue) > 1e-3 {
		t.Errorf("K_d = %v, want %v (rnorm %g)", named["K_d"], kTrue, fit.RNorm)
	}
}
