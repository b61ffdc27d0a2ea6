package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSumLikeTermMerge replays the paper's §3.1 example:
// 2*k1*B*C + 3*k1*B*C combines into 5*k1*B*C.
func TestSumLikeTermMerge(t *testing.T) {
	s := NewSum(ts)
	s.Add(prod(2, "k1", "B", "C"))
	s.Add(prod(3, "k1", "B", "C"))
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if got, want := s.String(), "5*k1*B*C"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestSumFig4To5 replays the paper's Fig. 4 → Fig. 5 step: the two
// dB/dt = +K_A*A contributions sum into one equation. Fig. 5 prints them
// unmerged ("K_A*A + K_A*A"); §3.1's simplification merges them to 2*K_A*A,
// which is what the equation table maintains on the fly.
func TestSumFig4To5(t *testing.T) {
	dB := NewSum(ts)
	dB.Add(prod(1, "K_A", "A"))
	dB.Add(prod(1, "K_A", "A"))
	if got, want := dB.String(), "2*K_A*A"; got != want {
		t.Errorf("dB/dt = %q, want %q", got, want)
	}
}

func TestSumCancellation(t *testing.T) {
	s := NewSum(ts)
	s.Add(prod(1, "K_A", "A"))
	s.Add(prod(-1, "K_A", "A"))
	if !s.IsZero() {
		t.Errorf("cancelled sum not zero: %s", s)
	}
	// The index must stay consistent after removal.
	s.Add(prod(2, "K_A", "A"))
	if got, want := s.String(), "2*K_A*A"; got != want {
		t.Errorf("after re-add: %q, want %q", got, want)
	}
}

func TestSumZeroCoefIgnored(t *testing.T) {
	s := NewSum(ts)
	s.Add(prod(0, "A"))
	if !s.IsZero() {
		t.Error("adding a zero-coefficient product must be a no-op")
	}
}

func TestSumScale(t *testing.T) {
	s := SumOf(ts, prod(2, "A"), prod(3, "B"))
	s.Scale(-2)
	env := map[string]float64{"A": 1, "B": 1}
	if got := s.Eval(env); got != -10 {
		t.Errorf("Eval after Scale = %v, want -10", got)
	}
	s.Scale(0)
	if !s.IsZero() {
		t.Error("Scale(0) must empty the sum")
	}
}

func TestSumAddSum(t *testing.T) {
	a := SumOf(ts, prod(1, "K_A", "A"), prod(2, "B"))
	b := SumOf(ts, prod(-1, "K_A", "A"), prod(5, "C"))
	a.AddSum(b)
	if got, want := a.String(), "2*B + 5*C"; got != want {
		t.Errorf("AddSum = %q, want %q", got, want)
	}
}

func TestSumVariables(t *testing.T) {
	s := SumOf(ts, prod(1, "B", "K_A"), prod(2, "A", "B"))
	vars := names(s.Variables())
	want := []string{"K_A", "A", "B"}
	if len(vars) != len(want) {
		t.Fatalf("Variables = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Variables = %v, want %v", vars, want)
		}
	}
}

// TestSumCountOps checks the static op-count rule on the paper's §3.2
// starting equation: k1*B*C + k1*B*D + k1*E*F has 6 multiplies and 2 adds.
func TestSumCountOps(t *testing.T) {
	s := SumOf(ts,
		prod(1, "k1", "B", "C"),
		prod(1, "k1", "B", "D"),
		prod(1, "k1", "E", "F"),
	)
	muls, adds := s.CountOps()
	if muls != 6 || adds != 2 {
		t.Errorf("CountOps = (%d,%d), want (6,2)", muls, adds)
	}
	// A non-unit coefficient costs one extra multiply; ±1 is free.
	s2 := SumOf(ts, prod(2, "A", "B"), prod(-1, "C", "D"))
	muls, adds = s2.CountOps()
	if muls != 3 || adds != 1 {
		t.Errorf("CountOps = (%d,%d), want (3,1)", muls, adds)
	}
}

func TestSumStringSigns(t *testing.T) {
	s := SumOf(ts, prod(-1, "K_C", "C", "D"), prod(1, "K_A", "A"))
	if got, want := s.String(), "K_A*A - K_C*C*D"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := NewSum(ts).String(), "0"; got != want {
		t.Errorf("empty sum String = %q, want %q", got, want)
	}
}

func randomSum(rng *rand.Rand, names []string) *Sum {
	s := NewSum(ts)
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		d := 1 + rng.Intn(4)
		fs := make([]string, d)
		for j := range fs {
			fs[j] = names[rng.Intn(len(names))]
		}
		s.Add(prod(float64(rng.Intn(9)-4), fs...))
	}
	return s
}

func randomEnv(rng *rand.Rand, names []string) map[string]float64 {
	env := make(map[string]float64, len(names))
	for _, n := range names {
		env[n] = rng.Float64()*4 - 2
	}
	return env
}

var testNames = []string{"K_A", "K_B", "k1", "A", "B", "C", "D", "E"}

// Property: insertion order never changes a sum's canonical form or value.
func TestSumOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ps []Product
		// Up to 48 products, so like terms merge and cancel in a
		// like-term index that has grown past its first table.
		n := 1 + rng.Intn(48)
		for i := 0; i < n; i++ {
			d := 1 + rng.Intn(4)
			fs := make([]string, d)
			for j := range fs {
				fs[j] = testNames[rng.Intn(len(testNames))]
			}
			ps = append(ps, prod(float64(rng.Intn(7)-3), fs...))
		}
		a := SumOf(ts, ps...)
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		b := SumOf(ts, ps...)
		return a.String() == b.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clone is independent of the original.
func TestSumCloneIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSum(rng, testNames)
		c := s.Clone()
		before := c.String()
		s.Add(prod(float64(1+rng.Intn(5)), testNames[rng.Intn(len(testNames))]))
		s.Scale(2)
		return c.String() == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: converting a Sum to a Node preserves its value.
func TestSumNodeEvalAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSum(rng, testNames)
		env := randomEnv(rng, testNames)
		sv := s.Eval(env)
		nv := s.Node().Eval(env, nil)
		return approxEqual(sv, nv, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func approxEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if a > m {
		m = a
	}
	if -a > m {
		m = -a
	}
	if b > m {
		m = b
	}
	if -b > m {
		m = -b
	}
	return d <= tol*m
}
