package codegen

import (
	"math"
	"math/rand"
	"testing"

	"rms/internal/eqgen"
	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/telemetry"
)

func compileSystem(t testing.TB, sys *eqgen.System, level opt.Level) *Program {
	t.Helper()
	prog, err := Compile(opt.Optimize(sys, level))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func randomInputs(rng *rand.Rand, prog *Program) (y, k []float64) {
	y = make([]float64, prog.NumY)
	for i := range y {
		y[i] = rng.Float64() * 2
	}
	k = make([]float64, prog.NumK)
	for i := range k {
		k[i] = 0.1 + rng.Float64()*3
	}
	return y, k
}

// TestPreludeRerunsOnInPlaceKMutation is the regression test for the
// prelude cache: mutating the k slice in place between evaluations must
// rerun the prelude, not reuse the one cached for the old values.
func TestPreludeRerunsOnInPlaceKMutation(t *testing.T) {
	// Three equivalent-site instances of one reaction plus a second rate
	// give the hoister k-invariants (3·K_1 + K_2), so the tape has a real
	// prelude.
	n := network.New()
	n.AddSpecies("A", "", 1)
	n.AddSpecies("B", "", 0)
	for s := 0; s < 3; s++ {
		n.AddReaction("r", "K_1", []string{"A"}, []string{"B"})
	}
	n.AddReaction("r2", "K_2", []string{"A"}, []string{"B"})
	prog := compileSystem(t, eqgen.FromNetwork(n), opt.Full())
	if len(prog.Prelude) == 0 {
		t.Fatal("test system has no prelude; pick one with hoistable k-work")
	}
	y := []float64{1, 0}
	k := []float64{2, 4}
	ev := prog.NewEvaluator()
	dy := make([]float64, prog.NumY)
	ev.Eval(y, k, dy)
	// Mutate k in place: same slice header, new values.
	k[0], k[1] = 5, 0.25
	got := make([]float64, prog.NumY)
	ev.Eval(y, k, got)
	want := make([]float64, prog.NumY)
	prog.NewEvaluator().Eval(y, k, want)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stale prelude after in-place k mutation: dy[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPreludeRunsWithNoRateConstants: with NumK == 0 the first
// evaluation's k compares equal to the evaluator's empty cache, but the
// prelude must still run once.
func TestPreludeRunsWithNoRateConstants(t *testing.T) {
	// Layout [consts | y | scratch]: slot0 = 2, slot1 = y[0],
	// prelude: slot2 = 2*2, code: slot3 = slot2*y.
	prog := &Program{
		NumY: 1, NumK: 0,
		Consts:   []float64{2},
		NumSlots: 4,
		Prelude:  []Instr{{Op: OpMul, Dst: 2, A: 0, B: 0}},
		Code:     []Instr{{Op: OpMul, Dst: 3, A: 2, B: 1}},
		Out:      []int32{3},
	}
	ev := prog.NewEvaluator()
	dy := make([]float64, 1)
	ev.Eval([]float64{3}, nil, dy)
	if dy[0] != 12 {
		t.Errorf("dy = %v, want 12 (prelude skipped on first evaluation?)", dy[0])
	}
}

// TestSerialPreludeCacheNaN: tape.prelude_runs stays at 1 across
// repeated evaluations with a NaN-containing k (the optimizer's penalty
// path), instead of rerunning every time because NaN != NaN.
func TestSerialPreludeCacheNaN(t *testing.T) {
	sys := familySystem(4)
	prog := compileSystem(t, sys, opt.Full())
	ev := prog.NewEvaluator()
	reg := telemetry.NewRegistry()
	ev.Observe(reg)
	preludes := reg.Counter("tape.prelude_runs")

	y := make([]float64, prog.NumY)
	for i := range y {
		y[i] = 0.5
	}
	k := make([]float64, prog.NumK)
	for j := range k {
		k[j] = math.NaN()
	}
	dy := make([]float64, prog.NumY)
	for rep := 0; rep < 5; rep++ {
		ev.Eval(y, k, dy)
	}
	if got := preludes.Value(); got != 1 {
		t.Fatalf("tape.prelude_runs = %d after 5 evals with constant NaN k, want 1", got)
	}
}
