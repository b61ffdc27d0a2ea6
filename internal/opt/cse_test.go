package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rms/internal/eqgen"
	"rms/internal/expr"
	"rms/internal/network"
	"rms/internal/vulcan"
)

// vars builds an Add of variables.
func varSum(names ...string) expr.Node {
	ns := make([]expr.Node, len(names))
	for i, n := range names {
		ns[i] = v(n)
	}
	return expr.NewAdd(ns...)
}

// TestCSEPaperExample replays §3.3's worked example:
//
//	dA/dt = (A+B+C+D)*k1*E
//	dB/dt = (A+B+C+D)*k2*F
//	dC/dt = (A+B+C)*k3*G
//
// must produce temp[0] = A+B+C, temp[1] = temp[0]+D, with dA and dB using
// temp[1] and dC using temp[0].
func TestCSEPaperExample(t *testing.T) {
	rhs := []expr.Node{
		expr.NewMul(varSum("A", "B", "C", "D"), v("k1"), v("E")),
		expr.NewMul(varSum("A", "B", "C", "D"), v("k2"), v("F")),
		expr.NewMul(varSum("A", "B", "C"), v("k3"), v("G")),
	}
	res := CSE(rhs, CSEConfig{})
	if len(res.Temps) != 2 {
		t.Fatalf("temps = %d, want 2; defs: %v", len(res.Temps), res.Temps)
	}
	if got, want := res.Temps[0].Body.String(), "A + B + C"; got != want {
		t.Errorf("temp[0] = %q, want %q", got, want)
	}
	if got, want := res.Temps[1].Body.String(), "D + temp[0]"; got != want {
		t.Errorf("temp[1] = %q, want %q", got, want)
	}
	if got, want := res.RHS[0].String(), "k1*E*temp[1]"; got != want {
		t.Errorf("dA/dt = %q, want %q", got, want)
	}
	if got, want := res.RHS[1].String(), "k2*F*temp[1]"; got != want {
		t.Errorf("dB/dt = %q, want %q", got, want)
	}
	if got, want := res.RHS[2].String(), "k3*G*temp[0]"; got != want {
		t.Errorf("dC/dt = %q, want %q", got, want)
	}
	// Operation counts: before = (2 adds + 2 muls) ×2 + (2 adds + 2 muls)
	// after: temp0 = 2 adds; temp1 = 1 add; each eq 2 muls.
	var m, a int
	for _, d := range res.Temps {
		dm, da := expr.CountOps(d.Body)
		m += dm
		a += da
	}
	for _, r := range res.RHS {
		rm, ra := expr.CountOps(r)
		m += rm
		a += ra
	}
	if m != 6 || a != 3 {
		t.Errorf("ops after CSE = (%d,%d), want (6,3)", m, a)
	}
}

// TestCSESharedProductAcrossEquations is the Fig. 5 pattern: the flux
// K_CD*C*D appears (negated) in three equations; with product matching the
// flux computes once.
func TestCSESharedProductAcrossEquations(t *testing.T) {
	mk := func(coef float64) expr.Node {
		return expr.NewMul(expr.NewConst(coef),
			v("K_CD"), v("C"), v("D"))
	}
	rhs := []expr.Node{mk(-1), mk(-1), mk(1)}
	res := CSE(rhs, CSEConfig{Products: true})
	if len(res.Temps) != 1 {
		t.Fatalf("temps = %d, want 1", len(res.Temps))
	}
	if got, want := res.Temps[0].Body.String(), "K_CD*C*D"; got != want {
		t.Errorf("temp[0] = %q, want %q", got, want)
	}
	if got, want := res.RHS[0].String(), "-temp[0]"; got != want {
		t.Errorf("rhs[0] = %q, want %q", got, want)
	}
	if got, want := res.RHS[2].String(), "temp[0]"; got != want {
		t.Errorf("rhs[2] = %q, want %q", got, want)
	}
	env := map[string]float64{"K_CD": 2, "C": 3, "D": 5}
	temps := evalTemps(res.Temps, env)
	if got := res.RHS[0].Eval(env, temps); got != -30 {
		t.Errorf("rhs[0] = %v, want -30", got)
	}
}

// TestCSEWithoutProducts checks the paper-faithful mode ignores product
// sharing.
func TestCSEWithoutProducts(t *testing.T) {
	mk := func() expr.Node {
		return expr.NewMul(v("K_CD"), v("C"), v("D"))
	}
	res := CSE([]expr.Node{mk(), mk()}, CSEConfig{Products: false})
	if len(res.Temps) != 0 {
		t.Errorf("sum-only CSE created %d temps from products", len(res.Temps))
	}
}

// TestCSEScaledUse: coefficients stay at the use site so 2*K*A*B and
// -3*K*A*B share the flux K*A*B.
func TestCSEScaledUse(t *testing.T) {
	mk := func(c float64) expr.Node {
		return expr.NewMul(expr.NewConst(c), v("K_x"), v("A"), v("B"))
	}
	rhs := []expr.Node{mk(2), mk(-3)}
	res := CSE(rhs, CSEConfig{Products: true})
	if len(res.Temps) != 1 {
		t.Fatalf("temps = %d, want 1", len(res.Temps))
	}
	env := map[string]float64{"K_x": 1, "A": 2, "B": 3}
	temps := evalTemps(res.Temps, env)
	if got := res.RHS[0].Eval(env, temps); got != 12 {
		t.Errorf("rhs[0] = %v, want 12", got)
	}
	if got := res.RHS[1].Eval(env, temps); got != -18 {
		t.Errorf("rhs[1] = %v, want -18", got)
	}
}

// TestCSETempOrdering: nested shared subexpressions emit def-before-use.
func TestCSETempOrdering(t *testing.T) {
	inner := func() expr.Node { return varSum("A", "B") }
	outer := func() expr.Node {
		return expr.NewAdd(expr.NewMul(v("k1"), inner()), v("C"), v("D"))
	}
	rhs := []expr.Node{outer(), outer(), inner()}
	res := CSE(rhs, CSEConfig{Products: true})
	if len(res.Temps) < 2 {
		t.Fatalf("temps = %d, want >= 2", len(res.Temps))
	}
	// Each def may only reference earlier temps.
	for i, d := range res.Temps {
		if d.ID != i {
			t.Errorf("temp %d has ID %d", i, d.ID)
		}
		expr.Walk(d.Body, func(n expr.Node) {
			if ref, ok := n.(*expr.TempRef); ok && ref.ID >= i {
				t.Errorf("temp[%d] references temp[%d] (use before def)", i, ref.ID)
			}
		})
	}
}

// TestCSEPrefixChain: A+B, A+B+C, A+B+C+D chain through prefixes.
func TestCSEPrefixChain(t *testing.T) {
	rhs := []expr.Node{
		varSum("A", "B"), varSum("A", "B"),
		varSum("A", "B", "C"), varSum("A", "B", "C"),
		varSum("A", "B", "C", "D"),
	}
	res := CSE(rhs, CSEConfig{})
	if len(res.Temps) != 2 {
		t.Fatalf("temps = %d, want 2: %v", len(res.Temps), res.Temps)
	}
	if got, want := res.Temps[0].Body.String(), "A + B"; got != want {
		t.Errorf("temp[0] = %q", got)
	}
	if got, want := res.Temps[1].Body.String(), "C + temp[0]"; got != want {
		t.Errorf("temp[1] = %q, want %q", got, want)
	}
	if got, want := res.RHS[4].String(), "D + temp[1]"; got != want {
		t.Errorf("rhs[4] = %q, want %q", got, want)
	}
	// Total adds: temp0(1) + temp1(1) + uses(0+0+0+0+1) = 3.
	adds := 0
	count := func(n expr.Node) {
		_, a := expr.CountOps(n)
		adds += a
	}
	for _, d := range res.Temps {
		count(d.Body)
	}
	for _, r := range res.RHS {
		count(r)
	}
	if adds != 3 {
		t.Errorf("adds = %d, want 3", adds)
	}
}

func evalTemps(defs []TempDef, env map[string]float64) []float64 {
	temps := make([]float64, len(defs))
	for i, d := range defs {
		temps[i] = d.Body.Eval(env, temps)
	}
	return temps
}

// randomSystem builds a small random reaction network and its ODEs.
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

// Property: every rung of the optimizer ladder preserves the system's
// semantics.
func TestOptimizePreservesSemantics(t *testing.T) {
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
		for l := LevelNone; l <= LevelFull; l++ {
			got := Optimize(sys, l).Eval(y, k)
			for i := range ref {
				if !approxEqual(ref[i], got[i], 1e-9) {
					t.Logf("level %v eq %d: %v vs %v", l, i, ref[i], got[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// scanPrefix is the paper's pairwise scan: walk every expression of width
// i comparing its canonical term list with the long expression's prefix.
// It is the O(m²n) oracle for the hashed prefix index.
func (c *csePass) scanPrefix(e *cseEntry, i int) *cseEntry {
	var best *cseEntry
	for _, g := range c.entries {
		if g == e || g.width != i || g.kind != e.kind {
			continue
		}
		if slices.Equal(c.cons.key(g.key)[1:], c.cons.key(e.key)[1:1+i]) {
			// Deterministic choice: the entry with the smallest key.
			if best == nil || c.compareKeys(g, best) < 0 {
				best = g
			}
		}
	}
	return best
}

// cseByScan is CSE with the paper's scan in place of the hashed index.
func cseByScan(rhs []expr.Node, cfg CSEConfig) *CSEResult {
	c := collectCSE(rhs, cfg)
	c.match(c.scanPrefix)
	return c.result(rhs)
}

// sameCSE reports whether two CSE results print identically.
func sameCSE(a, b *CSEResult) bool {
	if len(a.Temps) != len(b.Temps) {
		return false
	}
	for i := range a.Temps {
		if a.Temps[i].Body.String() != b.Temps[i].Body.String() {
			return false
		}
	}
	for i := range a.RHS {
		if a.RHS[i].String() != b.RHS[i].String() {
			return false
		}
	}
	return true
}

// The paper's quadratic scan and the hashed index compute the same
// optimization, with and without product matching, on random systems and
// on vulcanization models.
func TestPaperScanEquivalent(t *testing.T) {
	same := func(sys *eqgen.System) bool {
		rhs := Optimize(sys, LevelDistribute).RHS
		for _, cfg := range []CSEConfig{{}, {Products: true}} {
			if !sameCSE(CSE(rhs, cfg), cseByScan(rhs, cfg)) {
				t.Logf("products %v: the hashed index and the scan differ", cfg.Products)
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		return same(randomSystem(rand.New(rand.NewSource(seed))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	for _, v := range []int{8, 12} {
		sys, err := vulcan.System(v)
		if err != nil {
			t.Fatal(err)
		}
		if !same(sys) {
			t.Errorf("vulcan %d: the hashed index and the scan differ", v)
		}
	}
}

// Property: optimization never increases the static op count.
func TestOptimizeNeverIncreasesOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng)
		m0, a0 := sys.TotalOps()
		z := Optimize(sys, Full())
		m1, a1 := z.CountOps()
		return m1 <= m0 && a1 <= a0+len(z.Temps) && m1+a1 <= m0+a0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFamilySumReduction builds the polymer-kinetics structure the
// vulcanization models have — every variant of family A reacts with every
// variant of family B under one rate constant — and checks the optimizer
// collapses the quadratic expansion to the family-total sums, the effect
// behind Table 1's superlinear gains.
func TestFamilySumReduction(t *testing.T) {
	const V = 20
	n := network.New()
	for i := 0; i < V; i++ {
		n.AddSpecies(fmt.Sprintf("A_%d", i), "", 1)
		n.AddSpecies(fmt.Sprintf("B_%d", i), "", 1)
	}
	n.AddSpecies("P", "", 0)
	for i := 0; i < V; i++ {
		for j := 0; j < V; j++ {
			n.AddReaction(fmt.Sprintf("r%d_%d", i, j), "K_ab",
				[]string{fmt.Sprintf("A_%d", i), fmt.Sprintf("B_%d", j)},
				[]string{"P"})
		}
	}
	sys := eqgen.FromNetwork(n)
	m0, a0 := sys.TotalOps()
	z := Optimize(sys, Full())
	m1, a1 := z.CountOps()
	t.Logf("family sums: ops (%d,%d) -> (%d,%d), %d temps", m0, a0, m1, a1, len(z.Temps))
	if float64(m1) > 0.15*float64(m0) {
		t.Errorf("multiplies only reduced %d -> %d; want > 85%% reduction", m0, m1)
	}
	if m1+a1 >= (m0+a0)/2 {
		t.Errorf("total ops only reduced %d -> %d", m0+a0, m1+a1)
	}
	// Semantics preserved on this structured system too.
	y := make([]float64, len(sys.Species))
	for i := range y {
		y[i] = 0.5 + 0.01*float64(i)
	}
	k := map[string]float64{"K_ab": 2}
	ref := sys.Eval(y, k)
	got := z.Eval(y, k)
	for i := range ref {
		if !approxEqual(ref[i], got[i], 1e-9) {
			t.Fatalf("eq %d: %v vs %v", i, ref[i], got[i])
		}
	}
}

func TestCSEDeterministic(t *testing.T) {
	sys := randomSystem(rand.New(rand.NewSource(42)))
	z1 := Optimize(sys, Full())
	z2 := Optimize(sys, Full())
	if len(z1.Temps) != len(z2.Temps) {
		t.Fatal("temp counts differ between runs")
	}
	var s1, s2 strings.Builder
	for i := range z1.Temps {
		s1.WriteString(z1.Temps[i].Body.String())
		s2.WriteString(z2.Temps[i].Body.String())
	}
	for i := range z1.RHS {
		s1.WriteString(z1.RHS[i].String())
		s2.WriteString(z2.RHS[i].String())
	}
	if s1.String() != s2.String() {
		t.Error("optimizer output differs between identical runs")
	}
}

// BenchmarkCSEMatching is the ablation of §3.3's matching strategies on
// the 64-variant vulcanization model: the CSE pass with the hash-consed
// prefix lookup versus the same pass with the paper's O(m²n) pairwise
// scan.
func BenchmarkCSEMatching(b *testing.B) {
	sys, err := vulcan.System(64)
	if err != nil {
		b.Fatal(err)
	}
	rhs := Optimize(sys, LevelDistribute).RHS
	cfg := CSEConfig{Products: true}
	for _, mode := range []struct {
		name string
		cse  func([]expr.Node, CSEConfig) *CSEResult
	}{{"hashed", CSE}, {"paper-scan", cseByScan}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mode.cse(rhs, cfg)
			}
		})
	}
}
