package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the LU and SparseLU Refactor/SolveTo
// loops as first written, indexing the whole factor storage on every
// access. The resliced kernels must reproduce them bit for bit.

// refLURefactor is the reference LU.Refactor.
func refLURefactor(f *LU, m *Matrix) error {
	f.sign = 0
	if m.Rows != m.Cols {
		return fmt.Errorf("linalg: LU of non-square %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	if f.lu == nil || f.lu.Rows != n {
		f.lu = NewMatrix(n, n)
		f.piv = make([]int, n)
	}
	a := f.lu
	copy(a.Data, m.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		p := col
		max := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > max {
				max, p = v, r
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("%w (pivot column %d)", ErrSingular, col)
		}
		if p != col {
			ri := a.Data[p*n : (p+1)*n]
			rj := a.Data[col*n : (col+1)*n]
			for k := range ri {
				ri[k], rj[k] = rj[k], ri[k]
			}
			f.piv[p], f.piv[col] = f.piv[col], f.piv[p]
			sign = -sign
		}
		d := a.At(col, col)
		for r := col + 1; r < n; r++ {
			l := a.At(r, col) / d
			a.Set(r, col, l)
			if l == 0 {
				continue
			}
			arow := a.Data[r*n : (r+1)*n]
			crow := a.Data[col*n : (col+1)*n]
			for k := col + 1; k < n; k++ {
				arow[k] -= l * crow[k]
			}
		}
	}
	f.sign = sign
	return nil
}

// refLUSolveTo is the reference LU.SolveTo.
func refLUSolveTo(f *LU, dst, b []float64) error {
	if f.sign == 0 {
		return fmt.Errorf("%w (no factorization)", ErrSingular)
	}
	n := f.lu.Rows
	x := dst
	for i, p := range f.piv {
		x[i] = b[p]
	}
	a := f.lu
	for i := 1; i < n; i++ {
		row := a.Data[i*n : i*n+i]
		s := x[i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := a.Data[i*n+i+1 : (i+1)*n]
		s := x[i]
		for j, v := range row {
			s -= v * x[i+1+j]
		}
		d := a.At(i, i)
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// refSparseRefactor is the reference SparseLU.Refactor. It leaves the
// factored flag alone.
func refSparseRefactor(f *SparseLU, a *CSR) error {
	w := f.work
	for i := 0; i < f.n; i++ {
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			w[f.colIdx[p]] = 0
		}
		v := f.perm[i]
		for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
			w[f.iperm[a.ColIdx[p]]] = a.Data[p]
		}
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			k := f.colIdx[p]
			l := w[k] / f.data[f.diag[k]]
			w[k] = l
			if l == 0 {
				continue
			}
			for q := f.diag[k] + 1; q < f.rowPtr[k+1]; q++ {
				w[f.colIdx[q]] -= l * f.data[q]
			}
		}
		piv := w[i]
		if piv == 0 || math.IsNaN(piv) {
			return fmt.Errorf("%w (sparse pivot row %d)", ErrSingular, v)
		}
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			f.data[p] = w[f.colIdx[p]]
		}
	}
	return nil
}

// refSparseSolveTo is the reference SparseLU.SolveTo.
func refSparseSolveTo(f *SparseLU, dst, b []float64) error {
	r := f.rhs
	for i := 0; i < f.n; i++ {
		r[i] = b[f.perm[i]]
	}
	for i := 0; i < f.n; i++ {
		s := r[i]
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			s -= f.data[p] * r[f.colIdx[p]]
		}
		r[i] = s
	}
	for i := f.n - 1; i >= 0; i-- {
		s := r[i]
		for p := f.diag[i] + 1; p < f.rowPtr[i+1]; p++ {
			s -= f.data[p] * r[f.colIdx[p]]
		}
		d := f.data[f.diag[i]]
		if d == 0 {
			return ErrSingular
		}
		r[i] = s / d
	}
	for i := 0; i < f.n; i++ {
		dst[f.perm[i]] = r[i]
	}
	return nil
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func requireSameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

func randVector(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// TestSparseLUKernelsMatchReference: on random diagonally dominant
// patterns with fill, Refactor writes the reference factor and SolveTo
// the reference solution, bit for bit, also with dst aliasing b; a NaN
// pivot, set directly or reached through elimination, fails at the same
// row, after which SolveTo refuses.
func TestSparseLUKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 40, 109} {
		for trial := 0; trial < 4; trial++ {
			name := fmt.Sprintf("n=%d/trial %d", n, trial)
			m, _ := randSparseSystem(rng, n, 1+trial)
			if trial == 3 {
				// Structural zeros stored as values exercise the l == 0
				// skip.
				for p := range m.Data {
					if rng.Intn(3) == 0 && m.ColIdx[p] != int32(rowOf(m, p)) {
						m.Data[p] = 0
					}
				}
			}
			root, err := NewSparseLU(m)
			if err != nil {
				t.Fatal(err)
			}
			ref, got := root.Fork(), root.Fork()
			requireSameError(t, name, got.Refactor(m), refSparseRefactor(ref, m))
			requireBits(t, name+" factor", got.data, ref.data)

			b := randVector(rng, n)
			want := make([]float64, n)
			x := make([]float64, n)
			requireSameError(t, name+" solve", got.SolveTo(x, b), refSparseSolveTo(ref, want, b))
			requireBits(t, name+" solution", x, want)
			requireSameError(t, name+" aliased solve", got.SolveTo(b, b), nil)
			requireBits(t, name+" aliased solution", b, want)

			for _, at := range []string{"pivot", "off-diagonal"} {
				bad := m.Clone()
				r := rng.Intn(n)
				p := bad.Index(r, r)
				if at == "off-diagonal" {
					if p+1 >= bad.NNZ() || rowOf(bad, p+1) != r {
						continue
					}
					p++
				}
				bad.Data[p] = math.NaN()
				gerr, rerr := got.Refactor(bad), refSparseRefactor(ref, bad)
				requireSameError(t, name+" NaN "+at, gerr, rerr)
				if gerr != nil {
					if err := got.SolveTo(x, want); !errors.Is(err, ErrSingular) {
						t.Fatalf("%s: SolveTo after failed Refactor: %v, want ErrSingular", name, err)
					}
				} else {
					requireBits(t, name+" NaN "+at+" factor", got.data, ref.data)
				}
			}
		}
	}
}

// rowOf returns the row of the CSR entry at data offset p.
func rowOf(m *CSR, p int) int {
	for i := 0; i < m.N; i++ {
		if p < int(m.RowPtr[i+1]) {
			return i
		}
	}
	return -1
}

// TestLUKernelsMatchReference: on random matrices that need pivoting,
// with and without zeros, Refactor writes the reference factor,
// permutation and sign and SolveTo the reference solution, bit for bit;
// a NaN pivot fails at the same column.
func TestLUKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 2, 40, 109} {
		for trial := 0; trial < 4; trial++ {
			name := fmt.Sprintf("n=%d/trial %d", n, trial)
			m := NewMatrix(n, n)
			for i := range m.Data {
				if trial < 2 || rng.Intn(3) != 0 {
					m.Data[i] = rng.NormFloat64()
				}
			}
			if trial == 3 {
				m.Data[rng.Intn(n*n)] = math.NaN()
			}
			var got, ref LU
			gerr, rerr := got.Refactor(m), refLURefactor(&ref, m)
			requireSameError(t, name, gerr, rerr)
			requireBits(t, name+" factor", got.lu.Data, ref.lu.Data)
			if got.sign != ref.sign || fmt.Sprint(got.piv) != fmt.Sprint(ref.piv) {
				t.Fatalf("%s: sign %d piv %v, reference %d %v", name, got.sign, got.piv, ref.sign, ref.piv)
			}
			b := randVector(rng, n)
			want := make([]float64, n)
			x := make([]float64, n)
			if gerr != nil {
				if err := got.SolveTo(x, b); !errors.Is(err, ErrSingular) {
					t.Fatalf("%s: SolveTo after failed Refactor: %v, want ErrSingular", name, err)
				}
				continue
			}
			requireSameError(t, name+" solve", got.SolveTo(x, b), refLUSolveTo(&ref, want, b))
			requireBits(t, name+" solution", x, want)
		}
	}
}

// TestSparseLUFailedRefactorRefusesSolve: a tridiagonal matrix whose
// last pivot eliminates to zero fails Refactor with rows 0 and 1 already
// rewritten. SolveTo must refuse the half-written factor until a good
// Refactor, after which it solves exactly as a fresh fork does.
func TestSparseLUFailedRefactorRefusesSolve(t *testing.T) {
	rows := []int32{0, 0, 1, 1, 1, 2, 2}
	cols := []int32{0, 1, 0, 1, 2, 1, 2}
	fill := func(vals ...float64) *CSR {
		m := NewCSRPattern(3, rows, cols, true)
		copy(m.Data, vals)
		return m
	}
	singular := fill(1, 1, 1, 2, 1, 1, 1) // det 0; u22 = 1 − 1·1
	good := fill(4, 1, 1, 4, 1, 1, 4)
	root, err := NewSparseLU(singular)
	if err != nil {
		t.Fatal(err)
	}
	f := root.Fork()
	if err := f.Refactor(good); err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(singular); !errors.Is(err, ErrSingular) {
		t.Fatalf("Refactor of a singular matrix: %v, want ErrSingular", err)
	}
	b := []float64{1, 2, 3}
	x := make([]float64, 3)
	if err := f.SolveTo(x, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveTo after failed Refactor: %v (x = %v), want ErrSingular", err, x)
	}
	if err := f.Refactor(good); err != nil {
		t.Fatal(err)
	}
	if err := f.SolveTo(x, b); err != nil {
		t.Fatal(err)
	}
	fresh := root.Fork()
	if err := fresh.SolveTo(make([]float64, 3), b); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveTo on a fresh fork: %v, want ErrSingular", err)
	}
	if err := fresh.Refactor(good); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 3)
	if err := fresh.SolveTo(want, b); err != nil {
		t.Fatal(err)
	}
	requireBits(t, "solution after recovery", x, want)
}
