package ode

import (
	"math"
	"testing"

	"rms/internal/linalg"
)

// tridiagSystem is a stiff 1-D reaction–diffusion chain:
// dy_i/dt = d·(y_{i-1} − 2y_i + y_{i+1}) − r·y_i, with closed ends. Its
// Jacobian is tridiagonal — the canonical sparse stiff test problem.
func tridiagSystem(n int, d, r float64) (Func, func(t float64, y []float64, dst *linalg.Matrix), *linalg.CSR, func(t float64, y []float64, dst *linalg.CSR)) {
	f := func(_ float64, y, dy []float64) {
		for i := 0; i < n; i++ {
			v := -2 * y[i]
			if i > 0 {
				v += y[i-1]
			}
			if i < n-1 {
				v += y[i+1]
			}
			dy[i] = d*v - r*y[i]
		}
	}
	denseJac := func(_ float64, _ []float64, dst *linalg.Matrix) {
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		for i := 0; i < n; i++ {
			dst.Set(i, i, -2*d-r)
			if i > 0 {
				dst.Set(i, i-1, d)
			}
			if i < n-1 {
				dst.Set(i, i+1, d)
			}
		}
	}
	var rows, cols []int32
	for i := 0; i < n; i++ {
		rows = append(rows, int32(i))
		cols = append(cols, int32(i))
		if i > 0 {
			rows = append(rows, int32(i))
			cols = append(cols, int32(i-1))
		}
		if i < n-1 {
			rows = append(rows, int32(i))
			cols = append(cols, int32(i+1))
		}
	}
	pattern := linalg.NewCSRPattern(n, rows, cols, true)
	sparseJac := func(_ float64, _ []float64, dst *linalg.CSR) {
		dst.Zero()
		for i := 0; i < n; i++ {
			dst.Data[dst.Index(i, i)] = -2*d - r
			if i > 0 {
				dst.Data[dst.Index(i, i-1)] = d
			}
			if i < n-1 {
				dst.Data[dst.Index(i, i+1)] = d
			}
		}
	}
	return f, denseJac, pattern, sparseJac
}

func TestBDFSparsePathMatchesDense(t *testing.T) {
	const n = 120
	f, denseJac, pattern, sparseJac := tridiagSystem(n, 400, 3)
	y0 := make([]float64, n)
	for i := range y0 {
		y0[i] = math.Sin(float64(i+1)) + 1.5
	}

	opts := Options{RTol: 1e-8, ATol: 1e-11, Jacobian: denseJac}
	yDense := append([]float64(nil), y0...)
	sd := NewBDF(f, n, opts)
	if err := sd.Integrate(0, 0.5, yDense); err != nil {
		t.Fatal(err)
	}
	if sd.Sparse() {
		t.Fatal("dense-configured solver took the sparse path")
	}

	opts.SparsePattern = pattern
	opts.SparseJacobian = sparseJac
	ySparse := append([]float64(nil), y0...)
	ss := NewBDF(f, n, opts)
	if err := ss.Integrate(0, 0.5, ySparse); err != nil {
		t.Fatal(err)
	}
	if !ss.Sparse() {
		t.Fatal("sparse-configured solver stayed dense")
	}
	for i := range yDense {
		tol := 1e-6 * (1 + math.Abs(yDense[i]))
		if math.Abs(yDense[i]-ySparse[i]) > tol {
			t.Fatalf("y[%d]: dense %g vs sparse %g", i, yDense[i], ySparse[i])
		}
	}

	st := ss.Stats()
	if st.SparseFactorizations == 0 || st.SparseFactorizations != st.Factorizations {
		t.Fatalf("sparse factorizations %d of %d", st.SparseFactorizations, st.Factorizations)
	}
	if st.JacNNZ != pattern.NNZ() {
		t.Fatalf("JacNNZ = %d, want %d", st.JacNNZ, pattern.NNZ())
	}
	if st.FillNNZ < st.JacNNZ {
		t.Fatalf("FillNNZ %d < JacNNZ %d", st.FillNNZ, st.JacNNZ)
	}
	if st.FactorOps <= 0 || st.SolveOps <= 0 {
		t.Fatal("sparse path must account FactorOps/SolveOps")
	}
	// The sparse accounting must be far below the dense ⅔n³ per factor.
	densePerFactor := (2.0 / 3.0) * float64(n) * float64(n) * float64(n)
	if perFactor := st.FactorOps / float64(st.Factorizations); perFactor > densePerFactor/10 {
		t.Fatalf("sparse factor cost %g not ≪ dense %g", perFactor, densePerFactor)
	}
}

func TestBDFSparseThresholdFallsBackToDense(t *testing.T) {
	const n = 30
	f, denseJac, pattern, sparseJac := tridiagSystem(n, 50, 1)
	y0 := make([]float64, n)
	for i := range y0 {
		y0[i] = 1
	}
	// A threshold below the pattern's density must keep the dense path.
	opts := Options{
		Jacobian: denseJac, SparsePattern: pattern, SparseJacobian: sparseJac,
		SparseThreshold: pattern.Density() / 2,
	}
	s := NewBDF(f, n, opts)
	y := append([]float64(nil), y0...)
	if err := s.Integrate(0, 0.1, y); err != nil {
		t.Fatal(err)
	}
	if s.Sparse() {
		t.Fatal("solver ignored the density threshold")
	}
	if st := s.Stats(); st.SparseFactorizations != 0 || st.JacNNZ != 0 {
		t.Fatalf("dense fallback leaked sparse stats: %+v", st)
	}

	// A negative threshold disables the sparse path outright.
	opts.SparseThreshold = -1
	s2 := NewBDF(f, n, opts)
	y2 := append([]float64(nil), y0...)
	if err := s2.Integrate(0, 0.1, y2); err != nil {
		t.Fatal(err)
	}
	if s2.Sparse() {
		t.Fatal("negative threshold must disable the sparse path")
	}

	// Small systems stay dense regardless of sparsity.
	f3, dj3, p3, sj3 := tridiagSystem(8, 50, 1)
	opts3 := Options{Jacobian: dj3, SparsePattern: p3, SparseJacobian: sj3}
	s3 := NewBDF(f3, 8, opts3)
	y3 := make([]float64, 8)
	for i := range y3 {
		y3[i] = 1
	}
	if err := s3.Integrate(0, 0.1, y3); err != nil {
		t.Fatal(err)
	}
	if s3.Sparse() {
		t.Fatal("8-dimensional system should stay dense (SparseMinDim)")
	}
}

// TestBDFSparseSymbolicFork: solvers handed one prebuilt symbolic
// factorization (Options.SymbolicLU, as the service's model cache shares
// it) fork private numeric storage over it. Interleaved record by record
// on the same symbolic LU, each reproduces a solver that analyzes the
// pattern itself, bit for bit and with the same counters.
func TestBDFSparseSymbolicFork(t *testing.T) {
	const n = 60
	f, _, pattern, sparseJac := tridiagSystem(n, 40, 1)
	opts := Options{RTol: 1e-7, ATol: 1e-10, InitialStep: 1e-3,
		SparsePattern: pattern, SparseJacobian: sparseJac}
	y0 := make([]float64, n)
	for i := range y0 {
		y0[i] = 1 + math.Sin(float64(i))
	}
	own := NewBDF(f, n, opts)
	want := append([]float64(nil), y0...)
	if err := own.Integrate(0, 0.5, want); err != nil {
		t.Fatal(err)
	}
	if !own.Sparse() {
		t.Fatal("solver did not take the sparse path")
	}

	shared, err := linalg.NewSparseLU(pattern)
	if err != nil {
		t.Fatal(err)
	}
	forked := opts
	forked.SymbolicLU = shared
	solvers := []*BDF{NewBDF(f, n, forked), NewBDF(f, n, forked)}
	ys := [][]float64{append([]float64(nil), y0...), append([]float64(nil), y0...)}
	for i := 1; i <= 4; i++ {
		for s, solver := range solvers {
			if err := solver.Integrate(0.5*float64(i-1)/4, 0.5*float64(i)/4, ys[s]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s, solver := range solvers {
		if !solver.Sparse() {
			t.Fatalf("forked solver %d did not take the sparse path", s)
		}
		for i := range want {
			if math.Float64bits(ys[s][i]) != math.Float64bits(want[i]) {
				t.Fatalf("forked solver %d: y[%d] = %v, own symbolic LU %v (bit difference)", s, i, ys[s][i], want[i])
			}
		}
		if st := solver.Stats(); st != own.Stats() {
			t.Errorf("forked solver %d stats %+v, own symbolic LU %+v", s, st, own.Stats())
		}
	}
}
