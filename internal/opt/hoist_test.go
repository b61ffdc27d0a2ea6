package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rms/internal/expr"
	"rms/internal/network"

	"rms/internal/eqgen"
)

// hoistSystem builds a system with obvious k-invariants: three
// equivalent-site instances of one reaction (coefficient 3·K) plus two
// reactions with different rates over the same reactants (K_a + K_b
// sums).
func hoistSystem(t *testing.T) *eqgen.System {
	t.Helper()
	n := network.New()
	n.AddSpecies("A", "", 1)
	n.AddSpecies("B", "", 0)
	for s := 0; s < 3; s++ {
		if _, err := n.AddReaction("r", "K_1", []string{"A"}, []string{"B"}); err != nil {
			t.Fatal(err)
		}
	}
	n.AddReaction("r2", "K_2", []string{"A"}, []string{"B"})
	return eqgen.FromNetwork(n)
}

func TestHoistMovesKInvariants(t *testing.T) {
	sys := hoistSystem(t)
	z := Optimize(sys, Full())
	if z.NumPrelude == 0 {
		t.Fatalf("no prelude temps; temps = %v, rhs = %v %v", z.Temps, z.RHS[0], z.RHS[1])
	}
	// Prelude bodies read only rate constants.
	for _, d := range z.Temps[:z.NumPrelude] {
		for _, s := range expr.Variables(d.Body) {
			if name := z.Syms.Name(s); !expr.IsRateConstant(name) {
				t.Errorf("prelude temp reads species %q: %s", name, d.Body)
			}
		}
	}
	// dA/dt = -A*(3K_1 + K_2): one multiply per evaluation after hoisting.
	m, _ := z.CountOps()
	if m > 2 {
		t.Errorf("per-evaluation muls = %d, want <= 2 (coefficient work hoisted)", m)
	}
	pm, pa := z.PreludeOps()
	if pm+pa == 0 {
		t.Error("prelude does no work")
	}
}

func TestHoistPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng)
		y := make([]float64, len(sys.Species))
		for i := range y {
			y[i] = rng.Float64() * 2
		}
		k := map[string]float64{}
		for _, r := range sys.Rates {
			k[r] = rng.Float64() * 3
		}
		ref := sys.Eval(y, k)
		z := Optimize(sys, Full())
		got := z.Eval(y, k)
		for i := range ref {
			if !approxEqual(ref[i], got[i], 1e-9) {
				t.Logf("eq %d: %v vs %v", i, ref[i], got[i])
				return false
			}
		}
		// Temp IDs stay dense and ordered, def before use.
		for i, d := range z.Temps {
			if d.ID != i {
				t.Logf("temp %d has ID %d", i, d.ID)
				return false
			}
			bad := false
			expr.Walk(d.Body, func(n expr.Node) {
				if ref, ok := n.(*expr.TempRef); ok && ref.ID >= i {
					bad = true
				}
			})
			if bad {
				t.Logf("temp %d uses a later temp", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestHoistNothingToDo(t *testing.T) {
	// A single ±1-coefficient reaction has no k-invariant work.
	n := network.New()
	n.AddSpecies("A", "", 1)
	n.AddSpecies("B", "", 0)
	n.AddReaction("r", "K_1", []string{"A"}, []string{"B"})
	sys := eqgen.FromNetwork(n)
	z := Optimize(sys, Full())
	if z.NumPrelude != 0 {
		t.Errorf("prelude = %d temps for a trivial system", z.NumPrelude)
	}
}
