package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}}
	for i := range vals {
		for j, v := range vals[i] {
			a.Set(i, j, v)
		}
	}
	f, err := a.LU()
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{5, -2, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if d := f.Det(); math.Abs(d-(-16)) > 1e-9 {
		t.Errorf("det = %v, want -16", d)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := a.LU(); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewMatrix(2, 3).LU(); err == nil {
		t.Error("LU of non-square matrix succeeded")
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	f, err := a.LU()
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

// TestLURefactorReuse: one LU refactored across size changes and past a
// singular failure solves bit-identically to a fresh Matrix.LU, leaves
// its input untouched, and holds no factorization after a failure.
func TestLURefactorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	system := func(n int) (*Matrix, []float64) {
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		return m, b
	}
	var f LU
	check := func(m *Matrix, b []float64) {
		t.Helper()
		in := append([]float64(nil), m.Data...)
		if err := f.Refactor(m); err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if math.Float64bits(m.Data[i]) != math.Float64bits(in[i]) {
				t.Fatalf("Refactor modified its input at %d", i)
			}
		}
		fresh, err := m.LU()
		if err != nil {
			t.Fatal(err)
		}
		got, want := make([]float64, m.Rows), make([]float64, m.Rows)
		if err := f.SolveTo(got, b); err != nil {
			t.Fatal(err)
		}
		if err := fresh.SolveTo(want, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d x[%d] = %v after reuse, fresh LU %v", m.Rows, i, got[i], want[i])
			}
		}
		if math.Float64bits(f.Det()) != math.Float64bits(fresh.Det()) {
			t.Fatalf("n=%d det %v after reuse, fresh LU %v", m.Rows, f.Det(), fresh.Det())
		}
	}
	for _, n := range []int{5, 5, 12, 3} {
		check(system(n))
	}
	// Singular at pivot column 1, after the first column has been
	// eliminated in place.
	singular := NewMatrix(3, 3)
	copy(singular.Data, []float64{1, 2, 3, 2, 4, 7, 4, 8, 5})
	if err := f.Refactor(singular); !errors.Is(err, ErrSingular) {
		t.Fatalf("Refactor of a singular matrix: %v, want ErrSingular", err)
	}
	if err := f.SolveTo(make([]float64, 3), []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveTo after a failed Refactor: %v, want ErrSingular", err)
	}
	check(system(3)) // same size as the failed matrix
	if err := f.Refactor(singular); err == nil {
		t.Fatal("singular Refactor succeeded")
	}
	check(system(7)) // size change after a failure
	if err := f.Refactor(NewMatrix(2, 3)); err == nil {
		t.Fatal("Refactor of a non-square matrix succeeded")
	}
	check(system(7))
}

// Property: LU solves random well-conditioned systems to high accuracy.
func TestLUSolveRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(want, b)
		lu, err := a.LU()
		if err != nil {
			return false
		}
		x, err := lu.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	c, err := a.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve([]float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// A·x = b with x = [1.75, 1.5]: 4*1.75+2*1.5 = 10; 2*1.75+3*1.5 = 8.
	if math.Abs(x[0]-1.75) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Errorf("x = %v, want [1.75 1.5]", x)
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, 1)
	if _, err := a.Cholesky(); !errors.Is(err, ErrNotSPD) {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
}

// Property: Cholesky solves random SPD systems (A = MᵀM + I).
func TestCholeskySolveRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += m.At(k, i) * m.At(k, j)
				}
				a.Set(i, j, s)
			}
			a.Add(i, i, 1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(want, b)
		c, err := a.Cholesky()
		if err != nil {
			return false
		}
		x, err := c.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if Norm2(a) != 5 {
		t.Errorf("Norm2 = %v", Norm2(a))
	}
	if NormInf([]float64{1, -7, 3}) != 7 {
		t.Error("NormInf")
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.MulVec(x, dst)
	for i := range x {
		if dst[i] != x[i] {
			t.Errorf("I·x = %v", dst)
		}
	}
}

func TestQRSolveSquare(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}}
	for i := range vals {
		for j, v := range vals[i] {
			a.Set(i, j, v)
		}
	}
	f, err := a.QR()
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{5, -2, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestQRLeastSquares(t *testing.T) {
	// Overdetermined: fit y = a + b*t at 4 points with exact data.
	a := NewMatrix(4, 2)
	b := make([]float64, 4)
	for i := 0; i < 4; i++ {
		tt := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, tt)
		b[i] = 2 + 3*tt
	}
	f, err := a.QR()
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [2 3]", x)
	}
}

func TestQRShapeAndSingular(t *testing.T) {
	if _, err := NewMatrix(2, 3).QR(); err == nil {
		t.Error("wide matrix accepted")
	}
	z := NewMatrix(3, 2) // zero column -> singular
	z.Set(0, 0, 1)
	z.Set(1, 0, 2)
	z.Set(2, 0, 3)
	if _, err := z.QR(); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// Property: QR and LU agree on random square well-conditioned systems,
// and QR least-squares solutions satisfy the normal equations.
func TestQRSolveRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(5)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			if i < n {
				a.Add(i, i, float64(n))
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		qr, err := a.QR()
		if err != nil {
			return false
		}
		x, err := qr.Solve(b)
		if err != nil {
			return false
		}
		// Residual must be orthogonal to the column space: Aᵀ(Ax - b) ≈ 0.
		r := make([]float64, m)
		a.MulVec(x, r)
		for i := range r {
			r[i] -= b[i]
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += a.At(i, j) * r[i]
			}
			if math.Abs(s) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
