package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rms/internal/expr"
)

// TestDistOptPaperExample replays §3.2: k1*B*C + k1*B*D + k1*E*F must
// become k1*(B*(C+D) + E*F), going from 6 multiplies and 2 adds to
// 3 multiplies and 2 adds.
func TestDistOptPaperExample(t *testing.T) {
	s := expr.SumOf(ts,
		prod(1, "k1", "B", "C"),
		prod(1, "k1", "B", "D"),
		prod(1, "k1", "E", "F"),
	)
	mBefore, aBefore := s.CountOps()
	if mBefore != 6 || aBefore != 2 {
		t.Fatalf("input ops = (%d,%d), want (6,2)", mBefore, aBefore)
	}
	n := DistOpt(s)
	if got, want := n.String(), "k1*(B*(C + D) + E*F)"; got != want {
		t.Errorf("DistOpt = %q, want %q", got, want)
	}
	m, a := expr.CountOps(n)
	if m != 3 || a != 2 {
		t.Errorf("ops after = (%d,%d), want (3,2)", m, a)
	}
}

func TestDistOptNoSharing(t *testing.T) {
	s := expr.SumOf(ts,
		prod(1, "K_A", "A"),
		prod(2, "K_B", "B"),
	)
	n := DistOpt(s)
	env := map[string]float64{"K_A": 2, "A": 3, "K_B": 5, "B": 7}
	if got, want := n.Eval(env, nil), s.Eval(env); got != want {
		t.Errorf("Eval = %v, want %v", got, want)
	}
	m, a := expr.CountOps(n)
	ms, as := s.CountOps()
	if m != ms || a != as {
		t.Errorf("no-sharing input changed cost: (%d,%d) vs (%d,%d)", m, a, ms, as)
	}
}

func TestDistOptSingleProduct(t *testing.T) {
	s := expr.SumOf(ts, prod(-1, "K_C", "C", "D"))
	n := DistOpt(s)
	if got, want := n.String(), "-K_C*C*D"; got != want {
		t.Errorf("DistOpt = %q, want %q", got, want)
	}
}

func TestDistOptEmpty(t *testing.T) {
	n := DistOpt(expr.NewSum(ts))
	if n.String() != "0" {
		t.Errorf("DistOpt(0) = %q", n)
	}
}

func TestDistOptRepeatedFactor(t *testing.T) {
	// K*A*A + K*A*B: K and A both appear in 2 products; K wins the tie on
	// canonical order (rate constants first), then A is factored inside.
	s := expr.SumOf(ts,
		prod(1, "K_d", "A", "A"),
		prod(1, "K_d", "A", "B"),
	)
	n := DistOpt(s)
	if got, want := n.String(), "K_d*A*(A + B)"; got != want {
		t.Errorf("DistOpt = %q, want %q", got, want)
	}
	m, a := expr.CountOps(n)
	if m != 2 || a != 1 {
		t.Errorf("ops = (%d,%d), want (2,1)", m, a)
	}
}

func TestDistOptCoefficientsPreserved(t *testing.T) {
	// 2*k*B + 3*k*C: factoring k keeps the coefficients on the inner terms.
	s := expr.SumOf(ts,
		prod(2, "k1", "B"),
		prod(3, "k1", "C"),
	)
	n := DistOpt(s)
	env := map[string]float64{"k1": 10, "B": 1, "C": 1}
	if got := n.Eval(env, nil); got != 50 {
		t.Errorf("Eval = %v, want 50", got)
	}
	if got, want := n.String(), "k1*(2*B + 3*C)"; got != want {
		t.Errorf("DistOpt = %q, want %q", got, want)
	}
}

var optTestNames = []string{"K_A", "K_B", "K_C", "k1", "A", "B", "C", "D", "E", "F"}

func randomOptSum(rng *rand.Rand) *expr.Sum {
	s := expr.NewSum(ts)
	n := 1 + rng.Intn(10)
	for i := 0; i < n; i++ {
		d := 1 + rng.Intn(4)
		fs := make([]string, d)
		for j := range fs {
			fs[j] = optTestNames[rng.Intn(len(optTestNames))]
		}
		s.Add(prod(float64(rng.Intn(9)-4), fs...))
	}
	return s
}

func randomOptEnv(rng *rand.Rand) map[string]float64 {
	env := make(map[string]float64)
	for _, n := range optTestNames {
		env[n] = rng.Float64()*4 - 2
	}
	return env
}

// Property: DistOpt never changes the value of an equation.
func TestDistOptPreservesValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomOptSum(rng)
		env := randomOptEnv(rng)
		return approxEqual(s.Eval(env), DistOpt(s).Eval(env, nil), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: DistOpt never increases the multiply count and never changes
// the additive structure cost by more than the factoring saves.
func TestDistOptNeverIncreasesMuls(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomOptSum(rng)
		m0, _ := s.CountOps()
		m1, _ := expr.CountOps(DistOpt(s))
		return m1 <= m0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: DistOpt is deterministic.
func TestDistOptDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomOptSum(rng)
		return DistOpt(s).String() == DistOpt(s.Clone()).String()
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
	for _, v := range []float64{a, -a, b, -b} {
		if v > m {
			m = v
		}
	}
	return d <= tol*m
}
