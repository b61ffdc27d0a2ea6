package core

import (
	"math"
	"strings"
	"testing"

	"rms/internal/codegen"
	"rms/internal/opt"
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
	if c := codegen.EmitC(res.Optimized, "ode_fcn"); !strings.Contains(c, "void ode_fcn(") {
		t.Errorf("C output:\n%s", c)
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
