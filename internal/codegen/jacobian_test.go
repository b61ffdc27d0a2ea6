package codegen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/opt"

	"rms/internal/eqgen"
)

// fig3Jacobian checks the known entries of the Fig. 5 system:
// dA = -K_A*A; dC = -K_CD*C*D; ...
func TestCompileJacobianFig5(t *testing.T) {
	sys := fig3System(t)
	jp, err := CompileJacobian(sys, opt.Full())
	if err != nil {
		t.Fatal(err)
	}
	if jp.NumEntries() == 0 {
		t.Fatal("no Jacobian entries")
	}
	y := []float64{1, 0, 0.5, 0.25, 0}
	k := []float64{2, 4} // K_A, K_CD
	dst := linalg.NewMatrix(5, 5)
	jp.NewEvaluator().Eval(y, k, dst)
	// dA/dt = -K_A*A → J[0][0] = -2.
	if got := dst.At(0, 0); got != -2 {
		t.Errorf("J[0][0] = %v, want -2", got)
	}
	// dB/dt = 2*K_A*A → J[1][0] = 4.
	if got := dst.At(1, 0); got != 4 {
		t.Errorf("J[1][0] = %v, want 4", got)
	}
	// dC/dt = -K_CD*C*D → J[2][2] = -K_CD*D = -1, J[2][3] = -K_CD*C = -2.
	if got := dst.At(2, 2); got != -1 {
		t.Errorf("J[2][2] = %v, want -1", got)
	}
	if got := dst.At(2, 3); got != -2 {
		t.Errorf("J[2][3] = %v, want -2", got)
	}
	// Uncoupled entries are structurally zero.
	if got := dst.At(0, 4); got != 0 {
		t.Errorf("J[0][4] = %v, want 0", got)
	}
}

// Property: the compiled symbolic Jacobian matches central finite
// differences of the compiled right-hand side, for random systems, at
// every optimization level.
func TestJacobianMatchesFiniteDifference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng)
		for _, level := range []opt.Level{opt.LevelNone, opt.Full()} {
			z := opt.Optimize(sys, level)
			prog, err := Compile(z)
			if err != nil {
				return false
			}
			jp, err := CompileJacobian(sys, level)
			if err != nil {
				t.Logf("compile jacobian: %v", err)
				return false
			}
			n := prog.NumY
			y := make([]float64, n)
			for i := range y {
				y[i] = 0.5 + rng.Float64()
			}
			k := make([]float64, prog.NumK)
			for i := range k {
				k[i] = 0.5 + rng.Float64()
			}
			dst := linalg.NewMatrix(n, n)
			jp.NewEvaluator().Eval(y, k, dst)

			ev := prog.NewEvaluator()
			const h = 1e-6
			fp := make([]float64, n)
			fm := make([]float64, n)
			for j := 0; j < n; j++ {
				yj := y[j]
				y[j] = yj + h
				ev.Eval(y, k, fp)
				y[j] = yj - h
				ev.Eval(y, k, fm)
				y[j] = yj
				for i := 0; i < n; i++ {
					fd := (fp[i] - fm[i]) / (2 * h)
					if math.Abs(fd-dst.At(i, j)) > 1e-4*(1+math.Abs(fd)) {
						t.Logf("J[%d][%d]: sym %v vs fd %v", i, j, dst.At(i, j), fd)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The Jacobian sparsity matches the reaction structure: only species
// sharing a reaction couple.
func TestJacobianSparsity(t *testing.T) {
	n := network.New()
	n.AddSpecies("A", "", 1)
	n.AddSpecies("B", "", 0)
	n.AddSpecies("C", "", 0)
	n.AddReaction("r", "K_1", []string{"A"}, []string{"B"})
	sys := eqgen.FromNetwork(n)
	jp, err := CompileJacobian(sys, opt.Full())
	if err != nil {
		t.Fatal(err)
	}
	// Entries: d(dA)/dA, d(dB)/dA — C is inert.
	if jp.NumEntries() != 2 {
		t.Fatalf("entries = %d, want 2", jp.NumEntries())
	}
	for i := range jp.Rows {
		if jp.Cols[i] != 0 {
			t.Errorf("entry %d couples to species %d, want 0 (A)", i, jp.Cols[i])
		}
	}
}
