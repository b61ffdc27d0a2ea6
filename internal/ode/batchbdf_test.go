package ode

import (
	"math"
	"testing"

	"rms/internal/linalg"
)

// batchify lifts a per-lane Func to a BatchFunc over SoA state.
func batchify(f Func, n, b int) BatchFunc {
	return func(t float64, y, dy []float64) {
		yl := make([]float64, n)
		dl := make([]float64, n)
		for l := 0; l < b; l++ {
			for i := 0; i < n; i++ {
				yl[i] = y[i*b+l]
			}
			f(t, yl, dl)
			for i := 0; i < n; i++ {
				dy[i*b+l] = dl[i]
			}
		}
	}
}

func scatterLanes(y0s [][]float64, n, b int) []float64 {
	soa := make([]float64, n*b)
	for l, y := range y0s {
		for i := 0; i < n; i++ {
			soa[i*b+l] = y[i]
		}
	}
	return soa
}

// robertsonJac is the analytic Jacobian of robertson.
func robertsonJac(_ float64, y []float64, dst *linalg.Matrix) {
	dst.Set(0, 0, -0.04)
	dst.Set(0, 1, 1e4*y[2])
	dst.Set(0, 2, 1e4*y[1])
	dst.Set(1, 0, 0.04)
	dst.Set(1, 1, -1e4*y[2]-6e7*y[1])
	dst.Set(1, 2, -1e4*y[1])
	dst.Set(2, 0, 0)
	dst.Set(2, 1, 6e7*y[1])
	dst.Set(2, 2, 0)
}

// TestBatchBDFIdenticalLanesBitMatchSerial is the lockstep core's
// defining property: identical lanes make identical step-control
// decisions, so every lane of a uniform batch reproduces the one-lane
// (NewBDF) trajectory bit for bit — for each Jacobian source, across
// Integrate continuation, with one StepEvent per lockstep attempt.
func TestBatchBDFIdenticalLanesBitMatchSerial(t *testing.T) {
	withJac := Options{RTol: 1e-6, ATol: 1e-10, InitialStep: 1e-6, Jacobian: robertsonJac}
	cases := []struct {
		name string
		f    Func
		n    int
		y0   []float64
		t1   float64
		opts Options
	}{
		{"stiffLinear", stiffLinear, 2, []float64{2, 1}, 1,
			Options{RTol: 1e-8, ATol: 1e-12}},
		{"robertson", robertson, 3, []float64{1, 0, 0}, 0.3,
			Options{RTol: 1e-6, ATol: 1e-10, InitialStep: 1e-6}},
		{"robertsonJacobian", robertson, 3, []float64{1, 0, 0}, 0.3, withJac},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Three Integrate calls over [0, t1]: the second and third
			// continue the first's history.
			solve := func(s *BDF, y []float64) []int {
				var attempts []int
				for i := 1; i <= 3; i++ {
					n := 0
					s.opts.Observer = func(StepEvent) { n++ }
					if err := s.Integrate(tc.t1*float64(i-1)/3, tc.t1*float64(i)/3, y); err != nil {
						t.Fatal(err)
					}
					attempts = append(attempts, n)
				}
				return attempts
			}
			serial := NewBDF(tc.f, tc.n, tc.opts)
			want := append([]float64(nil), tc.y0...)
			wantAttempts := solve(serial, want)
			for _, b := range []int{1, 7} {
				bs := NewBatchBDF(batchify(tc.f, tc.n, b), tc.n, b, BatchOptions{Options: tc.opts})
				y0s := make([][]float64, b)
				for l := range y0s {
					y0s[l] = tc.y0
				}
				y := scatterLanes(y0s, tc.n, b)
				gotAttempts := solve(bs, y)
				for l := 0; l < b; l++ {
					for i := 0; i < tc.n; i++ {
						if math.Float64bits(y[i*b+l]) != math.Float64bits(want[i]) {
							t.Errorf("b=%d lane %d y[%d] = %v, serial %v (bit difference)",
								b, l, i, y[i*b+l], want[i])
						}
					}
				}
				sst, bst := serial.Stats(), bs.LaneStats(0)
				if bst != sst {
					t.Errorf("b=%d lane 0 stats %+v != serial %+v", b, bst, sst)
				}
				for i := range wantAttempts {
					if gotAttempts[i] != wantAttempts[i] {
						t.Errorf("b=%d call %d: %d step events, serial %d", b, i, gotAttempts[i], wantAttempts[i])
					}
				}
			}
		})
	}
}

// TestBatchBDFHeterogeneousLanes: lanes with different initial conditions
// share the lockstep grid but each converges to its own analytic
// solution within the integration tolerance.
func TestBatchBDFHeterogeneousLanes(t *testing.T) {
	const b = 6
	bs := NewBatchBDF(batchify(stiffLinear, 2, b), 2, b,
		BatchOptions{Options: Options{RTol: 1e-8, ATol: 1e-12}})
	y0s := make([][]float64, b)
	for l := range y0s {
		y0s[l] = []float64{2 + 0.5*float64(l), 1 + 0.25*float64(l)}
	}
	y := scatterLanes(y0s, 2, b)
	if err := bs.Integrate(0, 1, y); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < b; l++ {
		u, v := y0s[l][0], y0s[l][1]
		want0 := (u-v)*math.Exp(-1000) + v*math.Exp(-1)
		want1 := v * math.Exp(-1)
		if math.Abs(y[0*b+l]-want0) > 1e-6 {
			t.Errorf("lane %d y1(1) = %v, want %v", l, y[0*b+l], want0)
		}
		if math.Abs(y[1*b+l]-want1) > 1e-6 {
			t.Errorf("lane %d y2(1) = %v, want %v", l, y[1*b+l], want1)
		}
	}
}

// TestBatchBDFCompletionMasking: lanes with shorter output grids drop out
// of the lockstep — they stop accumulating steps — while the longest lane
// integrates to its horizon, and every grid point is emitted exactly
// once, in order.
func TestBatchBDFCompletionMasking(t *testing.T) {
	const b = 3
	bs := NewBatchBDF(batchify(robertson, 3, b), 3, b,
		BatchOptions{Options: Options{RTol: 1e-6, ATol: 1e-10, InitialStep: 1e-6}})
	grids := [][]float64{
		{0.01, 0.02},
		{0.05, 0.1, 0.2, 0.3},
		{},
	}
	y0s := [][]float64{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}}
	got := make([][]float64, b) // emitted times per lane
	sums := make([][]float64, b)
	err := bs.Solve(0, scatterLanes(y0s, 3, b), grids, func(lane, idx int, y []float64) {
		if idx != len(got[lane]) {
			t.Errorf("lane %d emitted index %d out of order", lane, idx)
		}
		got[lane] = append(got[lane], grids[lane][idx])
		sums[lane] = append(sums[lane], y[0]+y[1]+y[2])
	})
	if err != nil {
		t.Fatal(err)
	}
	for l := range grids {
		if bs.LaneErr(l) != nil {
			t.Errorf("lane %d failed: %v", l, bs.LaneErr(l))
		}
		if len(got[l]) != len(grids[l]) {
			t.Errorf("lane %d emitted %d points, want %d", l, len(got[l]), len(grids[l]))
		}
		for _, sum := range sums[l] {
			if math.Abs(sum-1) > 1e-5 {
				t.Errorf("lane %d mass not conserved: %v", l, sum)
			}
		}
	}
	if s0, s1 := bs.LaneStats(0).Steps, bs.LaneStats(1).Steps; s0 >= s1 {
		t.Errorf("short-grid lane was active for %d steps, long-grid lane %d — masking did not drop it", s0, s1)
	}
	if s2 := bs.LaneStats(2).Steps; s2 != 0 {
		t.Errorf("empty-grid lane accumulated %d steps", s2)
	}
}

// TestBatchBDFLaneFailureIsolation: a lane whose right-hand side is
// poisoned (NaN) fails out with a terminal LaneErr while the healthy
// lanes finish unharmed — NaNs cannot cross lanes in the SoA layout.
func TestBatchBDFLaneFailureIsolation(t *testing.T) {
	const n, b = 2, 4
	base := batchify(stiffLinear, n, b)
	f := func(t float64, y, dy []float64) {
		base(t, y, dy)
		for i := 0; i < n; i++ {
			dy[i*b+1] = math.NaN() // lane 1 is poisoned
		}
	}
	bs := NewBatchBDF(f, n, b, BatchOptions{Options: Options{RTol: 1e-8, ATol: 1e-12}})
	y0s := [][]float64{{2, 1}, {2, 1}, {3, 1}, {1, 2}}
	y := scatterLanes(y0s, n, b)
	if err := bs.Integrate(0, 1, y); err != nil {
		t.Fatalf("batch failed outright: %v", err)
	}
	if bs.LaneErr(1) == nil {
		t.Error("poisoned lane reported no error")
	}
	for _, l := range []int{0, 2, 3} {
		if bs.LaneErr(l) != nil {
			t.Errorf("healthy lane %d failed: %v", l, bs.LaneErr(l))
		}
		v := y0s[l][1]
		want1 := v * math.Exp(-1)
		if math.Abs(y[1*b+l]-want1) > 1e-6 {
			t.Errorf("lane %d y2(1) = %v, want %v", l, y[1*b+l], want1)
		}
	}
}

// TestBatchBDFSparseForkMatchesSerial: the forked-SparseLU path (one
// symbolic factorization shared across lanes) reproduces the one-lane
// sparse solver bit for bit on identical lanes, whether the lanes'
// Jacobians come from one batched sweep or the per-lane callback.
func TestBatchBDFSparseForkMatchesSerial(t *testing.T) {
	const n = 60
	f, _, pattern, sparseJac := tridiagSystem(n, 40, 1)
	opts := Options{RTol: 1e-7, ATol: 1e-10, SparsePattern: pattern, SparseJacobian: sparseJac}
	serial := NewBDF(f, n, opts)
	want := make([]float64, n)
	for i := range want {
		want[i] = 1 + math.Sin(float64(i))
	}
	if err := serial.Integrate(0, 0.5, want); err != nil {
		t.Fatal(err)
	}
	if !serial.Sparse() {
		t.Fatal("serial solver did not take the sparse path")
	}

	const b = 3
	bj := func(t float64, y []float64, active []bool, dst []*linalg.CSR) {
		yl := make([]float64, n)
		for l := 0; l < b; l++ {
			if active != nil && !active[l] {
				continue
			}
			for i := 0; i < n; i++ {
				yl[i] = y[i*b+l]
			}
			sparseJac(t, yl, dst[l])
		}
	}
	for name, bopts := range map[string]BatchOptions{
		"batched":  {Options: opts, BatchJacobian: bj},
		"per-lane": {Options: opts},
	} {
		bs := NewBatchBDF(batchify(f, n, b), n, b, bopts)
		if !bs.Sparse() {
			t.Fatalf("%s: batch solver did not take the sparse path", name)
		}
		y0s := make([][]float64, b)
		for l := range y0s {
			y0s[l] = make([]float64, n)
			for i := range y0s[l] {
				y0s[l][i] = 1 + math.Sin(float64(i))
			}
		}
		y := scatterLanes(y0s, n, b)
		if err := bs.Integrate(0, 0.5, y); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < b; l++ {
			for i := 0; i < n; i++ {
				if math.Float64bits(y[i*b+l]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: lane %d y[%d] = %v, serial sparse %v (bit difference)", name, l, i, y[i*b+l], want[i])
				}
			}
		}
		if st := bs.Stats(); st.SparseFactorizations != b*serial.Stats().SparseFactorizations {
			t.Errorf("%s: %d sparse factorizations, want %d per lane", name, st.SparseFactorizations, serial.Stats().SparseFactorizations)
		}
	}
}

// TestBatchBDFSolveValidation covers the input checks.
func TestBatchBDFSolveValidation(t *testing.T) {
	bs := NewBatchBDF(batchify(stiffLinear, 2, 2), 2, 2, BatchOptions{})
	if err := bs.Solve(0, make([]float64, 3), [][]float64{{1}, {1}}, nil); err == nil {
		t.Error("short y0 accepted")
	}
	if err := bs.Solve(0, make([]float64, 4), [][]float64{{1}}, nil); err == nil {
		t.Error("wrong grid count accepted")
	}
	if err := bs.Solve(0, make([]float64, 4), [][]float64{{1, 0.5}, {1}}, nil); err == nil {
		t.Error("descending grid accepted")
	}
	if err := bs.Solve(0, make([]float64, 4), [][]float64{{1}, {-1}}, nil); err == nil {
		t.Error("mixed-direction grids accepted")
	}
}
