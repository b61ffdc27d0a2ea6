package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMulFlattensAndFoldsConstants(t *testing.T) {
	n := NewMul(NewConst(2), NewMul(v("A"), NewConst(3)), v("K_A"))
	m, ok := n.(*Mul)
	if !ok {
		t.Fatalf("NewMul returned %T, want *Mul", n)
	}
	if got, want := m.String(), "6*K_A*A"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestNewMulCollapses(t *testing.T) {
	if n := NewMul(v("A")); key(n) != "A" {
		t.Errorf("single-factor Mul should collapse to the factor, got %q", key(n))
	}
	if n := NewMul(NewConst(0), v("A")); key(n) != "0" {
		t.Errorf("zero product should collapse to 0, got %q", key(n))
	}
	if n := NewMul(NewConst(2), NewConst(3)); key(n) != "6" {
		t.Errorf("constant product should fold, got %q", key(n))
	}
	if n := NewMul(); key(n) != "1" {
		t.Errorf("empty product should be 1, got %q", key(n))
	}
}

func TestNewAddFlattensAndFoldsConstants(t *testing.T) {
	n := NewAdd(NewConst(1), NewAdd(v("A"), NewConst(2)), v("B"))
	a, ok := n.(*Add)
	if !ok {
		t.Fatalf("NewAdd returned %T, want *Add", n)
	}
	if got, want := a.String(), "3 + A + B"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestNewAddCollapses(t *testing.T) {
	if n := NewAdd(v("A")); key(n) != "A" {
		t.Errorf("single-term Add should collapse, got %q", key(n))
	}
	if n := NewAdd(); key(n) != "0" {
		t.Errorf("empty Add should be 0, got %q", key(n))
	}
	if n := NewAdd(NewConst(2), NewConst(-2)); key(n) != "0" {
		t.Errorf("cancelling constants should fold to 0, got %q", key(n))
	}
}

func TestFactoredStringMatchesPaper(t *testing.T) {
	// k1*(B*(C+D) + E*F) — the §3.2 fully factored result.
	inner := NewAdd(
		NewMul(v("B"), NewAdd(v("C"), v("D"))),
		NewMul(v("E"), v("F")),
	)
	n := NewMul(v("k1"), inner)
	if got, want := n.String(), "k1*(B*(C + D) + E*F)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	muls, adds := CountOps(n)
	if muls != 3 || adds != 2 {
		t.Errorf("CountOps = (%d,%d), want (3,2) per the paper's §3.2", muls, adds)
	}
}

func TestNegativeOneCoefficientIsFree(t *testing.T) {
	n := NewMul(NewConst(-1), v("K_C"), v("C"), v("D"))
	if got, want := n.String(), "-K_C*C*D"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	muls, _ := CountOps(n)
	if muls != 2 {
		t.Errorf("muls = %d, want 2 (sign is free)", muls)
	}
}

func TestTempRefEval(t *testing.T) {
	temps := []float64{7, 11}
	if got := NewTempRef(1).Eval(nil, temps); got != 11 {
		t.Errorf("TempRef eval = %v, want 11", got)
	}
	if got := NewTempRef(5).Eval(nil, temps); got == got { // NaN check
		t.Errorf("out-of-range TempRef should be NaN, got %v", got)
	}
	if got, want := NewTempRef(3).String(), "temp[3]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestCompareNodesTotalOrder(t *testing.T) {
	nodes := []Node{
		NewConst(1), NewConst(2), v("K_A"), v("A"),
		NewTempRef(0), NewMul(v("A"), v("B")),
		NewAdd(v("A"), v("B")),
	}
	for i, a := range nodes {
		for j, b := range nodes {
			c := CompareNodes(a, b)
			d := CompareNodes(b, a)
			if i == j && c != 0 {
				t.Errorf("CompareNodes(%s,%s) = %d, want 0", a, b, c)
			}
			if (c < 0) != (d > 0) && !(c == 0 && d == 0) {
				t.Errorf("CompareNodes not antisymmetric on %s,%s: %d vs %d", a, b, c, d)
			}
		}
	}
	// Constants < vars < temps < muls < adds.
	if CompareNodes(NewConst(9), v("A")) >= 0 {
		t.Error("constants must sort before variables")
	}
	if CompareNodes(v("A"), NewTempRef(0)) >= 0 {
		t.Error("variables must sort before temporaries")
	}
}

func TestWidth(t *testing.T) {
	if w := Width(v("A")); w != 1 {
		t.Errorf("Width(var) = %d, want 1", w)
	}
	if w := Width(NewAdd(v("A"), v("B"), v("C"))); w != 3 {
		t.Errorf("Width(3-term add) = %d, want 3", w)
	}
	if w := Width(NewMul(v("A"), v("B"))); w != 2 {
		t.Errorf("Width(2-factor mul) = %d, want 2", w)
	}
}

func TestVariablesOnTree(t *testing.T) {
	n := NewMul(v("k1"), NewAdd(v("B"), v("A"), NewTempRef(0)))
	vars := names(Variables(n))
	want := []string{"k1", "A", "B"}
	if len(vars) != len(want) {
		t.Fatalf("Variables = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Variables = %v, want %v", vars, want)
		}
	}
}

func randomNode(rng *rand.Rand, depth int) Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return NewConst(float64(rng.Intn(9) - 4))
		default:
			return v(testNames[rng.Intn(len(testNames))])
		}
	}
	n := 2 + rng.Intn(3)
	kids := make([]Node, n)
	for i := range kids {
		kids[i] = randomNode(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return NewMul(kids...)
	}
	return NewAdd(kids...)
}

// Property: equal canonical structure implies equal values.
func TestKeyDeterminesValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNode(rng, 3)
		b := randomNode(rng, 3)
		env := randomEnv(rng, testNames)
		if key(a) == key(b) {
			return approxEqual(a.Eval(env, nil), b.Eval(env, nil), 1e-9)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Clone produces an equal, independent tree.
func TestNodeCloneEqualAndIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNode(rng, 3)
		c := a.Clone()
		if key(a) != key(c) {
			return false
		}
		// Mutating the clone's children (if composite) must not affect a.
		before := key(a)
		if m, ok := c.(*Mul); ok && len(m.Factors) > 0 {
			m.Factors[0] = NewConst(999)
		}
		if ad, ok := c.(*Add); ok && len(ad.Terms) > 0 {
			ad.Terms[0] = NewConst(999)
		}
		return key(a) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: canonical constructors are insensitive to argument order.
func TestConstructorOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		kids := make([]Node, n)
		for i := range kids {
			kids[i] = randomNode(rng, 1)
		}
		a := NewAdd(kids...)
		m := NewMul(kids...)
		rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
		return key(a) == key(NewAdd(kids...)) && key(m) == key(NewMul(kids...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
