package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// columns maps the named symbols of ts to columns 0, 1, ... and every
// other symbol to -1.
func columns(names ...string) []int32 {
	col := make([]int32, ts.Len())
	for i := range col {
		col[i] = -1
	}
	for c, n := range names {
		col[ts.Sym(n)] = int32(c)
	}
	return col
}

// diffOne returns ∂s/∂wrt: Diff with wrt as the only column.
func diffOne(s *Sum, wrt string) *Sum {
	d := []*Sum{nil}
	Diff(s, columns(wrt), d, nil)
	if d[0] == nil {
		return NewSum(ts)
	}
	return d[0]
}

func TestDiffBasics(t *testing.T) {
	cases := []struct {
		sum  *Sum
		wrt  string
		want string
	}{
		// d(-K_A*A)/dA = -K_A
		{SumOf(ts, prod(-1, "K_A", "A")), "A", "-K_A"},
		// d(K*C*D)/dC = K*D
		{SumOf(ts, prod(1, "K_CD", "C", "D")), "C", "K_CD*D"},
		// power rule: d(-2*K*A*A)/dA = -4*K*A
		{SumOf(ts, prod(-2, "K_d", "A", "A")), "A", "-4*K_d*A"},
		// sums differentiate termwise
		{SumOf(ts, prod(1, "K_1", "A", "B"), prod(3, "K_2", "A")), "A",
			"K_1*B + 3*K_2"},
		// vanishing derivative
		{SumOf(ts, prod(1, "K_1", "B")), "A", "0"},
		// cubic: d(K*A^3)/dA = 3*K*A^2
		{SumOf(ts, prod(1, "K_1", "A", "A", "A")), "A", "3*K_1*A*A"},
	}
	for _, c := range cases {
		if got := diffOne(c.sum, c.wrt).String(); got != c.want {
			t.Errorf("d(%s)/d%s = %q, want %q", c.sum, c.wrt, got, c.want)
		}
	}
}

// One call differentiates with respect to every indexed variable, touches
// each column once in first-touch order, and leaves unindexed factors
// (the rate constants here) as constants.
func TestDiffAllColumns(t *testing.T) {
	s := SumOf(ts,
		prod(2, "K_A", "A", "A", "B"),
		prod(-1, "k1", "C"),
		prod(5, "K_A", "K_B"),
	)
	d := make([]*Sum, 4)
	touched := Diff(s, columns("A", "B", "C", "D"), d, []int{9})
	if len(touched) != 4 || touched[0] != 9 || touched[1] != 0 || touched[2] != 1 || touched[3] != 2 {
		t.Fatalf("touched = %v, want [9 0 1 2]", touched)
	}
	want := []string{"4*K_A*A*B", "2*K_A*A*A", "-k1"}
	for c, w := range want {
		if got := d[c].String(); got != w {
			t.Errorf("column %d = %q, want %q", c, got, w)
		}
	}
	if d[3] != nil {
		t.Errorf("untouched column 3 = %s", d[3])
	}
}

// Property: every column matches a central finite difference.
func TestDiffMatchesFiniteDifference(t *testing.T) {
	index := columns(testNames...)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSum(rng, testNames)
		d := make([]*Sum, len(testNames))
		Diff(s, index, d, nil)
		env := randomEnv(rng, testNames)
		for i, wrt := range testNames {
			const h = 1e-6
			envP := cloneEnv(env)
			envP[wrt] += h
			envM := cloneEnv(env)
			envM[wrt] -= h
			fd := (s.Eval(envP) - s.Eval(envM)) / (2 * h)
			sym := 0.0
			if d[i] != nil {
				sym = d[i].Eval(env)
			}
			if math.Abs(fd-sym) > 1e-4*(1+math.Abs(sym)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: differentiation is linear.
func TestDiffLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSum(rng, testNames)
		b := randomSum(rng, testNames)
		wrt := testNames[rng.Intn(len(testNames))]
		sum := a.Clone()
		sum.AddSum(b)
		lhs := diffOne(sum, wrt)
		rhs := diffOne(a, wrt)
		rhs.AddSum(diffOne(b, wrt))
		env := randomEnv(rng, testNames)
		return approxEqual(lhs.Eval(env), rhs.Eval(env), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func cloneEnv(env map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}
