package eqgen_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rms/internal/eqgen"
	"rms/internal/expr"
	"rms/internal/network"
	"rms/internal/rdl"
	"rms/internal/vulcan"
)

// referenceDiffSum is the per-variable derivative the Jacobian was first
// built from: every (equation, variable) pair re-sorts the equation's
// products and scans each for the variable's multiplicity.
func referenceDiffSum(s *expr.Sum, wrt expr.Sym) *expr.Sum {
	d := expr.NewSum(s.Syms())
	for _, p := range s.Products() {
		m := 0
		for _, f := range p.Factors {
			if f == wrt {
				m++
			}
		}
		if m == 0 {
			continue
		}
		q := p.Divide(wrt)
		q.Coef *= float64(m)
		d.Add(q)
	}
	return d
}

// referenceJacobian is System.Jacobian as first written, one
// referenceDiffSum per (equation, variable) pair.
func referenceJacobian(s *eqgen.System) []eqgen.JacEntry {
	index := s.SpeciesIndex()
	var entries []eqgen.JacEntry
	for row, eq := range s.Equations {
		for _, v := range eq.RHS.Variables() {
			col, ok := index[s.Syms.Name(v)]
			if !ok {
				continue
			}
			d := referenceDiffSum(eq.RHS, v)
			if d.IsZero() {
				continue
			}
			entries = append(entries, eqgen.JacEntry{Row: row, Col: col, RHS: d})
		}
	}
	return entries
}

// checkJacobianMatchesReference holds sys.Jacobian to the reference: the
// same entries in the same order, each with the same products (factors
// and coefficient bits) and the same Eval bits at seeded points, which
// pins the order the products were added in.
func checkJacobianMatchesReference(t *testing.T, name string, sys *eqgen.System) {
	t.Helper()
	got, want := sys.Jacobian(), referenceJacobian(sys)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", name, len(got), len(want))
	}
	rng := rand.New(rand.NewSource(int64(len(want))))
	envs := make([]map[string]float64, 3)
	for i := range envs {
		envs[i] = make(map[string]float64)
		for _, v := range append(append([]string(nil), sys.Species...), sys.Rates...) {
			envs[i][v] = 0.1 + 3*rng.Float64()
		}
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Row != w.Row || g.Col != w.Col {
			t.Fatalf("%s: entry %d at (%d,%d), reference (%d,%d)", name, i, g.Row, g.Col, w.Row, w.Col)
		}
		gp, wp := g.RHS.Products(), w.RHS.Products()
		if len(gp) != len(wp) {
			t.Fatalf("%s: J[%d,%d] = %s, reference %s", name, g.Row, g.Col, g.RHS, w.RHS)
		}
		for j := range wp {
			if math.Float64bits(gp[j].Coef) != math.Float64bits(wp[j].Coef) || !slices.Equal(gp[j].Factors, wp[j].Factors) {
				t.Fatalf("%s: J[%d,%d] product %d = %v, reference %v", name, g.Row, g.Col, j, gp[j], wp[j])
			}
		}
		for _, env := range envs {
			if gv, wv := g.RHS.Eval(env), w.RHS.Eval(env); math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("%s: J[%d,%d] evaluates to %v, reference %v", name, g.Row, g.Col, gv, wv)
			}
		}
	}
}

func TestJacobianMatchesReferenceVulcan(t *testing.T) {
	for _, v := range []int{10, 12, 14, 20, 35} {
		sys, err := vulcan.System(v)
		if err != nil {
			t.Fatal(err)
		}
		checkJacobianMatchesReference(t, fmt.Sprintf("vulcan %d", v), sys)
	}
}

func TestJacobianMatchesReferenceRDL(t *testing.T) {
	prog, err := rdl.Parse(vulcan.RDLSource(14))
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	checkJacobianMatchesReference(t, "RDL", eqgen.FromNetwork(net))
}

// Seeded random systems whose sums repeat factors (A*A*B), hold
// rate-only products, and list species out of canonical order.
func TestJacobianMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		species := []string{"Z", "A", "B2", "B10", "C", "x", "S_1"}
		rng.Shuffle(len(species), func(i, j int) { species[i], species[j] = species[j], species[i] })
		species = species[:2+rng.Intn(len(species)-1)]
		rates := []string{"K_A", "K_B", "k1", "k2"}
		names := append(append([]string(nil), species...), rates...)
		syms := expr.NewSymbols(names...)
		sys := &eqgen.System{Species: species, Rates: rates, Syms: syms}
		for _, lhs := range species {
			rhs := expr.NewSum(syms)
			for p := rng.Intn(12); p > 0; p-- {
				fs := []expr.Sym{syms.Sym(rates[rng.Intn(len(rates))])}
				for d := rng.Intn(4); d > 0; d-- {
					fs = append(fs, syms.Sym(names[rng.Intn(len(names))]))
				}
				if rng.Intn(3) == 0 {
					fs = append(fs, fs[len(fs)-1], fs[len(fs)-1]) // cube the last factor, species or rate
				}
				rhs.Add(expr.NewProduct(float64(rng.Intn(9)-4)*(1+rng.Float64()), fs...))
			}
			sys.Equations = append(sys.Equations, &eqgen.Equation{LHS: lhs, RHS: rhs, Raw: rhs.Products()})
		}
		checkJacobianMatchesReference(t, fmt.Sprintf("random %d", trial), sys)
	}
}
