package rms

import (
	"math"
	"strings"
	"testing"
)

const facadeModel = `
species Bridge = "C[S:1][S:2]C" init 1.0
reaction Scission {
    reactants Bridge
    disconnect 1:1 1:2
    rate K_sc
}
`

func TestCompileFacade(t *testing.T) {
	res, err := Compile(facadeModel, Config{Optimize: FullOptimization()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.C, "void ode_fcn(") {
		t.Errorf("C output:\n%s", res.C)
	}
	y := res.System.Y0
	k := []float64{2}
	dy := make([]float64, len(y))
	res.Tape.NewEvaluator().Eval(y, k, dy)
	if math.Abs(dy[0]+2) > 1e-12 {
		t.Errorf("dBridge/dt = %v, want -2", dy[0])
	}
}

func TestOptimizationPresets(t *testing.T) {
	for _, c := range []struct {
		got  OptLevel
		want string
	}{{FullOptimization(), "full"}, {PaperOptimization(), "paper"}, {NoOptimization(), "none"}} {
		if c.got.String() != c.want {
			t.Errorf("preset %v, want %s", c.got, c.want)
		}
	}
	if NoOptimization() != (Config{}).Optimize {
		t.Error("NoOptimization is not the zero configuration")
	}
}

func TestCompileNetworkFacade(t *testing.T) {
	// The network path is exercised heavily elsewhere; here only the
	// facade plumbing.
	res, err := Compile(facadeModel, Config{Optimize: NoOptimization()})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := CompileNetwork(res.Network, Config{Optimize: FullOptimization()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.System.NumEquations() != res.System.NumEquations() {
		t.Errorf("equation counts differ: %d vs %d",
			res2.System.NumEquations(), res.System.NumEquations())
	}
}
