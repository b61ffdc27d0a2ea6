// Package linalg provides the small dense linear-algebra kernel the
// suite's numerics need: row-major matrices, LU decomposition with partial
// pivoting (for the BDF solver's Newton systems), Cholesky decomposition
// (for Levenberg–Marquardt's damped normal equations) and vector helpers.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrNotSPD is returned by Cholesky on a matrix that is not symmetric
// positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add assigns m[i,j] += v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = m·x. dst must have length Rows and x length Cols;
// dst may not alias x.
func (m *Matrix) MulVec(x, dst []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("linalg: MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// LU is an LU factorization with partial pivoting: P·A = L·U. The zero
// value holds no factorization; Refactor fills it.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int // ±1 once factored, 0 while the LU holds no factorization
}

// LU factors the square matrix; it does not modify m.
func (m *Matrix) LU() (*LU, error) {
	f := &LU{}
	if err := f.Refactor(m); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor factors the square matrix m into f's storage, reusing it when
// m has the dimension of the previous factorization, so a solver that
// refactors one iteration matrix many times allocates only once. It does
// not modify m. After an error f holds no factorization until the next
// successful Refactor, and SolveTo reports ErrSingular.
func (f *LU) Refactor(m *Matrix) error {
	f.sign = 0
	if m.Rows != m.Cols {
		return fmt.Errorf("linalg: LU of non-square %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	if f.lu == nil || f.lu.Rows != n {
		f.lu = NewMatrix(n, n)
		f.piv = make([]int, n)
	}
	data := f.lu.Data[:n*n]
	copy(data, m.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in the column at or below the diagonal.
		p := col
		max := math.Abs(data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(data[r*n+col]); v > max {
				max, p = v, r
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("%w (pivot column %d)", ErrSingular, col)
		}
		crow := data[col*n : (col+1)*n]
		if p != col {
			prow := data[p*n : (p+1)*n]
			prow = prow[:len(crow)]
			for k, v := range crow {
				crow[k], prow[k] = prow[k], v
			}
			f.piv[p], f.piv[col] = f.piv[col], f.piv[p]
			sign = -sign
		}
		// Eliminate below the pivot; cu is the pivot row right of the
		// diagonal, and each row's update walks the same range.
		d := crow[col]
		cu := crow[col+1:]
		for r := col + 1; r < n; r++ {
			arow := data[r*n : (r+1)*n]
			l := arow[col] / d
			arow[col] = l
			if l == 0 {
				continue
			}
			au := arow[col+1:]
			au = au[:len(cu)]
			for k, c := range cu {
				au[k] -= l * c
			}
		}
	}
	f.sign = sign
	return nil
}

// Solve returns x with A·x = b.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.Rows)
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A·x = b into dst without allocating — the form the BDF
// Newton loop calls once per corrector iteration. dst must have length n
// and may not alias b (the pivot permutation reads b out of order).
func (f *LU) SolveTo(dst, b []float64) error {
	if f.sign == 0 {
		return fmt.Errorf("%w (no factorization)", ErrSingular)
	}
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("linalg: SolveTo length %d/%d, want %d", len(dst), len(b), n)
	}
	x := dst[:n]
	b = b[:n]
	for i, p := range f.piv {
		x[i] = b[p]
	}
	data := f.lu.Data[:n*n]
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := data[i*n : i*n+i]
		xs := x[:len(row)]
		s := x[i]
		for j, v := range row {
			s -= v * xs[j]
		}
		x[i] = s
	}
	// Back substitution. Refactor leaves no zero on U's diagonal: each
	// is the pivot its column was chosen for.
	for i := n - 1; i >= 0; i-- {
		row := data[i*n+i+1 : (i+1)*n]
		xs := x[i+1:]
		xs = xs[:len(row)]
		s := x[i]
		for j, v := range row {
			s -= v * xs[j]
		}
		x[i] = s / data[i*n+i]
	}
	return nil
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Cholesky is the lower-triangular factor of a symmetric positive
// definite matrix: A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// Cholesky factors the matrix; only the lower triangle of m is read.
func (m *Matrix) Cholesky() (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("%w (diagonal %d: %g)", ErrNotSPD, i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve returns x with A·x = b for the factored A.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	// L·y = b
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	// Lᵀ·x = y
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x, nil
}

// Dot returns ⟨a, b⟩.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// NormInf returns the max-magnitude norm.
func NormInf(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// Axpy computes y += alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
