package expr

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewProductCanonicalOrder(t *testing.T) {
	p := prod(2, "C", "K_A", "B")
	if got, want := pkey(p), "K_A*B*C"; got != want {
		t.Fatalf("factors = %v, want %v", got, want)
	}
}

func TestProductKeyIgnoresCoef(t *testing.T) {
	a := prod(2, "B", "K_A")
	b := prod(-7, "K_A", "B")
	if pkey(a) != pkey(b) {
		t.Errorf("factor lists differ: %q vs %q", pkey(a), pkey(b))
	}
	// Like terms merge whatever their coefficients.
	if s := SumOf(ts, a, b); s.Len() != 1 || s.String() != "-5*K_A*B" {
		t.Errorf("a + b = %s, want one like term -5*K_A*B", s)
	}
}

func TestProductContains(t *testing.T) {
	p := prod(1, "K_A", "A", "A", "B")
	for _, name := range []string{"K_A", "A", "B"} {
		if !p.Contains(ts.Sym(name)) {
			t.Errorf("Contains(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"C", "K_B", "Z"} {
		if p.Contains(ts.Sym(name)) {
			t.Errorf("Contains(%q) = true, want false", name)
		}
	}
}

func TestProductDivide(t *testing.T) {
	p := prod(3, "K_A", "A", "A")
	q := p.Divide(ts.Sym("A"))
	if got, want := pkey(q), "K_A*A"; got != want {
		t.Errorf("Divide removed wrong factor: %q, want %q", got, want)
	}
	if q.Coef != 3 {
		t.Errorf("Divide changed coefficient: %v", q.Coef)
	}
	// Original is untouched.
	if got, want := pkey(p), "K_A*A*A"; got != want {
		t.Errorf("Divide mutated receiver: %q, want %q", got, want)
	}
}

func TestProductDividePanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Divide on absent factor did not panic")
		}
	}()
	prod(1, "A").Divide(ts.Sym("B"))
}

func TestProductEval(t *testing.T) {
	env := map[string]float64{"K_A": 2, "A": 3, "B": 5}
	p := prod(-1, "K_A", "A", "B")
	if got := p.Eval(ts, env); got != -30 {
		t.Errorf("Eval = %v, want -30", got)
	}
	// Missing variables evaluate to zero.
	if got := prod(4, "Z").Eval(ts, env); got != 0 {
		t.Errorf("Eval with missing var = %v, want 0", got)
	}
}

func TestProductString(t *testing.T) {
	cases := []struct {
		p    Product
		want string
	}{
		{prod(1, "K_A", "A"), "K_A*A"},
		{prod(-1, "K_A", "A"), "-K_A*A"},
		{prod(2, "B", "C", "k1"), "2*k1*B*C"},
		{prod(5), "5"},
		{prod(-3.5, "A"), "-3.5*A"},
	}
	for _, c := range cases {
		if got := c.p.Format(ts); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

// Property: Divide then re-multiplying the factor restores the canonical
// factor list.
func TestProductDivideRoundTrip(t *testing.T) {
	names := []string{"K_A", "K_B", "A", "B", "C", "D"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		fs := make([]string, n)
		for i := range fs {
			fs[i] = names[rng.Intn(len(names))]
		}
		p := prod(1+rng.Float64(), fs...)
		pick := p.Factors[rng.Intn(len(p.Factors))]
		q := p.Divide(pick)
		r := NewProduct(q.Coef, append(slices.Clone(q.Factors), pick)...)
		return slices.Equal(r.Factors, p.Factors)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
