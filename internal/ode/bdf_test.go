package ode

import (
	"math"
	"math/rand"
	"testing"
)

// nevilleScalar is the reference for neville: the recursion for one
// component, evaluating at x the polynomial through the points
// (-j, w[j]) and overwriting w.
func nevilleScalar(w []float64, x float64) float64 {
	m := len(w)
	for level := 1; level < m; level++ {
		for j := 0; j < m-level; j++ {
			xj := -float64(j)
			xjl := -float64(j + level)
			w[j] = ((x-xjl)*w[j] - (x-xj)*w[j+1]) / (xj - xjl)
		}
	}
	return w[0]
}

// TestNevilleMatchesScalar: the component-major evaluator reproduces the
// scalar recursion bit for bit at every history length, at the points
// the solver evaluates (the predictor's x = 1, output times in (-1, 0],
// rescaled grids -i·ratio), on components that include signed zeros,
// subnormals, infinities and NaN.
func TestNevilleMatchesScalar(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64,
		2.2250738585072014e-308 / 3, math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, 1e300, -1e-300,
	}
	rng := rand.New(rand.NewSource(5))
	const n = 200
	xs := []float64{1, 0, math.Copysign(0, -1), -0.25, -0.5, -1.0 / 3, -0.75, -0.999999}
	for _, ratio := range []float64{0.1, 0.25, 0.5, 0.9, 1.1, 2.5} {
		for i := 1; i < maxHist; i++ {
			xs = append(xs, -float64(i)*ratio)
		}
	}
	for m := 1; m <= maxHist; m++ {
		rows := make([][]float64, m)
		for j := range rows {
			rows[j] = make([]float64, n)
			for c := range rows[j] {
				if rng.Intn(4) == 0 {
					rows[j][c] = special[rng.Intn(len(special))]
				} else {
					rows[j][c] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
				}
			}
		}
		work := make([][]float64, maxHist-2)
		for i := range work {
			work[i] = make([]float64, n)
		}
		for _, x := range xs {
			dst := make([]float64, n)
			neville(dst, rows, x, work)
			w := make([]float64, m)
			for c := range dst {
				for j := range w {
					w[j] = rows[j][c]
				}
				want := nevilleScalar(w, x)
				if math.Float64bits(dst[c]) != math.Float64bits(want) {
					t.Fatalf("m=%d x=%v component %d: %v (%016x), scalar %v (%016x)",
						m, x, c, dst[c], math.Float64bits(dst[c]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestBDFContinuedIntegrateAllocatesNothing: a warm solver continued
// record to record — the estimator's loop — steps, rescales its history,
// refactors and interpolates without allocating, on each Newton path.
func TestBDFContinuedIntegrateAllocatesNothing(t *testing.T) {
	const n = 40
	tri, _, pattern, triJac := tridiagSystem(n, 400, 3)
	triY0 := make([]float64, n)
	for i := range triY0 {
		triY0[i] = math.Sin(float64(i+1)) + 1.5
	}
	rob := Options{RTol: 1e-6, ATol: 1e-10, InitialStep: 1e-6}
	robJac := rob
	robJac.Jacobian = robertsonJac
	cases := []struct {
		name   string
		f      Func
		y0     []float64
		dt     float64
		opts   Options
		sparse bool
	}{
		{"dense-differences", robertson, []float64{1, 0, 0}, 0.02, rob, false},
		{"dense-analytic", robertson, []float64{1, 0, 0}, 0.02, robJac, false},
		{"sparse", tri, triY0, 0.002,
			Options{RTol: 1e-8, ATol: 1e-11, SparsePattern: pattern, SparseJacobian: triJac}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewBDF(tc.f, len(tc.y0), tc.opts)
			if s.Sparse() != tc.sparse {
				t.Fatalf("Sparse() = %v, want %v", s.Sparse(), tc.sparse)
			}
			y := append([]float64(nil), tc.y0...)
			tt := 0.0
			grid := func() {
				for i := 0; i < 10; i++ {
					if err := s.Integrate(tt, tt+tc.dt, y); err != nil {
						t.Fatal(err)
					}
					tt += tc.dt
				}
			}
			for i := 0; i < 5; i++ {
				grid() // warm up: the history and workspace pools reach their size
			}
			before := s.Stats()
			if allocs := testing.AllocsPerRun(20, grid); allocs != 0 {
				t.Errorf("%v allocations per 10-record grid, want 0", allocs)
			}
			after := s.Stats()
			if after.Steps == before.Steps || after.Factorizations == before.Factorizations {
				t.Fatalf("measured grids took %d steps and %d factorizations; want some of each",
					after.Steps-before.Steps, after.Factorizations-before.Factorizations)
			}
		})
	}
}
