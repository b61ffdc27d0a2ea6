package codegen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rms/internal/eqgen"
	"rms/internal/network"
	"rms/internal/opt"
)

// fig3System builds the paper's Fig. 5 ODE system.
func fig3System(t testing.TB) *eqgen.System {
	t.Helper()
	n := network.New()
	for _, s := range []struct {
		name string
		init float64
	}{{"A", 1}, {"B", 0}, {"C", 0.5}, {"D", 0.25}, {"E", 0}} {
		if _, err := n.AddSpecies(s.name, "", s.init); err != nil {
			t.Fatal(err)
		}
	}
	n.AddReaction("r1", "K_A", []string{"A"}, []string{"B", "B"})
	n.AddReaction("r2", "K_CD", []string{"C", "D"}, []string{"E"})
	return eqgen.FromNetwork(n)
}

func TestCompileAndEvalFig5(t *testing.T) {
	sys := fig3System(t)
	z := opt.Optimize(sys, opt.LevelNone)
	prog, err := Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	ev := prog.NewEvaluator()
	y := []float64{1, 0, 0.5, 0.25, 0}
	k := []float64{2, 4} // K_A, K_CD (sorted rate order)
	dy := make([]float64, 5)
	ev.Eval(y, k, dy)
	want := []float64{-2, 4, -0.5, -0.5, 0.5}
	for i := range want {
		if !close(dy[i], want[i]) {
			t.Errorf("dy[%d] = %v, want %v", i, dy[i], want[i])
		}
	}
}

func TestTapeOpCountsMatchStatic(t *testing.T) {
	sys := fig3System(t)
	for _, level := range []opt.Level{opt.LevelNone, opt.LevelSimplify, opt.Full()} {
		z := opt.Optimize(sys, level)
		prog, err := Compile(z)
		if err != nil {
			t.Fatal(err)
		}
		sm, sa := z.CountOps()
		pm, pa := prog.CountOps()
		if sm != pm || sa != pa {
			t.Errorf("level %v: static ops (%d,%d) vs tape ops (%d,%d)", level, sm, sa, pm, pa)
		}
	}
}

func TestEvaluatorShapeChecks(t *testing.T) {
	sys := fig3System(t)
	z := opt.Optimize(sys, opt.LevelNone)
	prog, _ := Compile(z)
	ev := prog.NewEvaluator()
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	ev.Eval(make([]float64, 2), make([]float64, 2), make([]float64, 5))
}

func TestEmitCFig5(t *testing.T) {
	sys := fig3System(t)
	z := opt.Optimize(sys, opt.LevelNone)
	c := EmitC(z, "ode_fcn")
	// The unoptimized emission is the raw Fig. 5 system, duplicate
	// contributions intact.
	for _, want := range []string{
		"void ode_fcn(int neq, double t, double y[], double k[], double yprime[])",
		"yprime[0] = -k[0]*y[0];",
		"yprime[1] = k[0]*y[0] + k[0]*y[0];",
		"yprime[4] = k[1]*y[2]*y[3];",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("EmitC missing %q in:\n%s", want, c)
		}
	}
	if strings.Contains(c, "temp[") {
		t.Error("unoptimized emission should have no temporaries")
	}
}

func TestEmitCWithTemps(t *testing.T) {
	sys := familySystem(6)
	z := opt.Optimize(sys, opt.Full())
	if len(z.Temps) == 0 {
		t.Fatal("expected temps from the family system")
	}
	c := EmitC(z, "f")
	if !strings.Contains(c, fmt.Sprintf("double temp[%d];", len(z.Temps))) {
		t.Errorf("missing temp declaration in:\n%s", c)
	}
	if !strings.Contains(c, "temp[0] = ") {
		t.Errorf("missing temp[0] assignment in:\n%s", c)
	}
	// Defs must precede the equations.
	if strings.Index(c, "temp[0] = ") > strings.Index(c, "yprime[0] = ") {
		t.Error("temp defs emitted after equations")
	}
}

// familySystem: V variants of A react with V variants of B (one rate),
// the structure with heavy cross-equation redundancy.
func familySystem(v int) *eqgen.System {
	n := network.New()
	for i := 0; i < v; i++ {
		n.AddSpecies(fmt.Sprintf("A_%d", i), "", 1)
		n.AddSpecies(fmt.Sprintf("B_%d", i), "", 1)
	}
	n.AddSpecies("P", "", 0)
	for i := 0; i < v; i++ {
		for j := 0; j < v; j++ {
			n.AddReaction(fmt.Sprintf("r%d_%d", i, j), "K_ab",
				[]string{fmt.Sprintf("A_%d", i), fmt.Sprintf("B_%d", j)}, []string{"P"})
		}
	}
	return eqgen.FromNetwork(n)
}

// Property: the compiled tape agrees with symbolic evaluation for every
// optimization level, on random systems and random inputs.
func TestTapeMatchesSymbolic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng)
		y := make([]float64, len(sys.Species))
		for i := range y {
			y[i] = rng.Float64() * 2
		}
		kv := make([]float64, len(sys.Rates))
		km := map[string]float64{}
		for i, r := range sys.Rates {
			kv[i] = rng.Float64() * 3
			km[r] = kv[i]
		}
		ref := sys.Eval(y, km)
		for _, level := range []opt.Level{opt.LevelNone, opt.LevelSimplify, opt.LevelDistribute, opt.Full()} {
			z := opt.Optimize(sys, level)
			prog, err := Compile(z)
			if err != nil {
				t.Logf("compile: %v", err)
				return false
			}
			dy := make([]float64, len(y))
			prog.NewEvaluator().Eval(y, kv, dy)
			for i := range ref {
				if !close(ref[i], dy[i]) {
					t.Logf("level %v eq %d: %v vs %v", level, i, ref[i], dy[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randomSystem(rng *rand.Rand) *eqgen.System {
	n := network.New()
	ns := 3 + rng.Intn(6)
	names := make([]string, ns)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i)
		n.AddSpecies(names[i], "", rng.Float64())
	}
	rates := []string{"K_1", "K_2", "K_3"}
	nr := 2 + rng.Intn(8)
	for i := 0; i < nr; i++ {
		var consumed []string
		for j := 0; j <= rng.Intn(2); j++ {
			consumed = append(consumed, names[rng.Intn(ns)])
		}
		var produced []string
		for j := 0; j <= rng.Intn(2); j++ {
			produced = append(produced, names[rng.Intn(ns)])
		}
		n.AddReaction(fmt.Sprintf("r%d", i), rates[rng.Intn(len(rates))], consumed, produced)
	}
	return eqgen.FromNetwork(n)
}

// Independent evaluators over one program do not interfere.
func TestEvaluatorsIndependent(t *testing.T) {
	sys := familySystem(4)
	z := opt.Optimize(sys, opt.Full())
	prog, err := Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := prog.NewEvaluator(), prog.NewEvaluator()
	y1 := make([]float64, prog.NumY)
	y2 := make([]float64, prog.NumY)
	for i := range y1 {
		y1[i] = 1
		y2[i] = 2
	}
	k := make([]float64, prog.NumK)
	for i := range k {
		k[i] = 1
	}
	d1 := make([]float64, prog.NumY)
	d2 := make([]float64, prog.NumY)
	e1.Eval(y1, k, d1)
	e2.Eval(y2, k, d2)
	d1b := make([]float64, prog.NumY)
	e1.Eval(y1, k, d1b)
	for i := range d1 {
		if d1[i] != d1b[i] {
			t.Fatalf("evaluator state leaked: %v vs %v", d1[i], d1b[i])
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	for _, v := range []float64{a, -a, b, -b} {
		if v > m {
			m = v
		}
	}
	return d <= 1e-9*m
}
