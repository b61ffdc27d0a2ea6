package nlopt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearFit(t *testing.T) {
	// Fit y = a + b·t to exact data; least squares must recover (2, -3).
	ts := []float64{0, 1, 2, 3, 4}
	obs := make([]float64, len(ts))
	for i, tt := range ts {
		obs[i] = 2 - 3*tt
	}
	f := func(x, r []float64) error {
		for i, tt := range ts {
			r[i] = x[0] + x[1]*tt - obs[i]
		}
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{0, 0},
		[]float64{-10, -10}, []float64{10, 10}, len(ts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]+3) > 1e-6 {
		t.Errorf("X = %v, want [2 -3]", res.X)
	}
	if res.RNorm > 1e-6 {
		t.Errorf("RNorm = %v", res.RNorm)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
}

func TestRosenbrock(t *testing.T) {
	// Rosenbrock as least squares: r = (10(x2 - x1²), 1 - x1); min at (1,1).
	f := func(x, r []float64) error {
		r[0] = 10 * (x[1] - x[0]*x[0])
		r[1] = 1 - x[0]
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{-1.2, 1},
		[]float64{-5, -5}, []float64{5, 5}, 2, Options{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-5 || math.Abs(res.X[1]-1) > 1e-5 {
		t.Errorf("X = %v, want [1 1] (rnorm %g)", res.X, res.RNorm)
	}
}

func TestExponentialRateRecovery(t *testing.T) {
	// The estimator's core use case: recover a decay rate from samples of
	// y = e^{-k t} with k = 1.7.
	ts := []float64{0.1, 0.3, 0.5, 1, 1.5, 2, 3}
	kTrue := 1.7
	obs := make([]float64, len(ts))
	for i, tt := range ts {
		obs[i] = math.Exp(-kTrue * tt)
	}
	f := func(x, r []float64) error {
		for i, tt := range ts {
			r[i] = math.Exp(-x[0]*tt) - obs[i]
		}
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{0.5},
		[]float64{0.01}, []float64{10}, len(ts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-kTrue) > 1e-5 {
		t.Errorf("k = %v, want %v", res.X[0], kTrue)
	}
}

func TestActiveBound(t *testing.T) {
	// Minimize (x-3)²; with upper bound 2 the solution pins at 2.
	f := func(x, r []float64) error {
		r[0] = x[0] - 3
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{0},
		[]float64{-1}, []float64{2}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 2 {
		t.Errorf("X = %v, want pinned at 2", res.X)
	}
	if !res.Active[0] {
		t.Error("bound not reported active")
	}
}

func TestStartOutsideBoundsIsClamped(t *testing.T) {
	f := func(x, r []float64) error {
		r[0] = x[0] - 1
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{100},
		[]float64{0}, []float64{5}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-6 {
		t.Errorf("X = %v, want 1", res.X)
	}
}

func TestFixedVariable(t *testing.T) {
	// lower == upper freezes a variable; the other still optimizes.
	f := func(x, r []float64) error {
		r[0] = x[0] - 7
		r[1] = x[1] - 1
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{4, 0},
		[]float64{4, -5}, []float64{4, 5}, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 4 {
		t.Errorf("frozen variable moved: %v", res.X)
	}
	if math.Abs(res.X[1]-1) > 1e-6 {
		t.Errorf("free variable = %v, want 1", res.X[1])
	}
}

func TestBadBounds(t *testing.T) {
	f := func(x, r []float64) error { r[0] = x[0]; return nil }
	if _, err := BoundedLeastSquares(f, []float64{0}, []float64{1}, []float64{-1}, 1, Options{}); !errors.Is(err, ErrBadBounds) {
		t.Errorf("err = %v, want ErrBadBounds", err)
	}
	if _, err := BoundedLeastSquares(f, []float64{0}, []float64{0, 0}, []float64{1}, 1, Options{}); !errors.Is(err, ErrBadBounds) {
		t.Errorf("err = %v, want ErrBadBounds", err)
	}
	if _, err := BoundedLeastSquares(f, []float64{0}, []float64{0}, []float64{1}, 0, Options{}); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestResidualErrorPropagates(t *testing.T) {
	boom := errors.New("solver blew up")
	f := func(x, r []float64) error { return boom }
	if _, err := BoundedLeastSquares(f, []float64{0}, []float64{-1}, []float64{1}, 1, Options{}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

// Property: random overdetermined linear systems are solved to the normal
// equations' accuracy when the solution is interior.
func TestRandomLinearLeastSquares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + 1 + rng.Intn(5)
		a := make([][]float64, m)
		xTrue := make([]float64, n)
		for j := range xTrue {
			xTrue[j] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i%n] += 2 // keep the column space well conditioned
			for j := range a[i] {
				b[i] += a[i][j] * xTrue[j]
			}
		}
		resid := func(x, r []float64) error {
			for i := range r {
				s := -b[i]
				for j := range x {
					s += a[i][j] * x[j]
				}
				r[i] = s
			}
			return nil
		}
		lo := make([]float64, n)
		hi := make([]float64, n)
		for j := range lo {
			lo[j], hi[j] = -50, 50
		}
		res, err := BoundedLeastSquares(resid, make([]float64, n), lo, hi, m, Options{})
		if err != nil {
			return false
		}
		for j := range xTrue {
			if math.Abs(res.X[j]-xTrue[j]) > 1e-4 {
				t.Logf("seed %d: X=%v want %v", seed, res.X, xTrue)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Multi-parameter kinetics-style recovery with noise stays near truth.
func TestNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kTrue := []float64{0.8, 2.5}
	var ts []float64
	for i := 0; i < 40; i++ {
		ts = append(ts, 0.05*float64(i+1))
	}
	obs := make([]float64, len(ts))
	for i, tt := range ts {
		obs[i] = math.Exp(-kTrue[0]*tt) + 0.5*math.Exp(-kTrue[1]*tt) + 1e-4*rng.NormFloat64()
	}
	f := func(x, r []float64) error {
		for i, tt := range ts {
			r[i] = math.Exp(-x[0]*tt) + 0.5*math.Exp(-x[1]*tt) - obs[i]
		}
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{0.3, 4},
		[]float64{0.01, 0.01}, []float64{10, 10}, len(ts), Options{MaxIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	for j := range kTrue {
		if math.Abs(res.X[j]-kTrue[j]) > 0.05 {
			t.Errorf("k[%d] = %v, want ≈ %v (%s)", j, res.X[j], kTrue[j],
				fmt.Sprintf("rnorm=%g iters=%d", res.RNorm, res.Iterations))
		}
	}
}

// TestRecordHistory: the Observer streams one ‖r‖ per outer iteration,
// and the trace never rises.
func TestRecordHistory(t *testing.T) {
	f := func(x, r []float64) error {
		r[0] = x[0]*x[0] - 2 // sqrt(2)
		return nil
	}
	var history []float64
	res, err := BoundedLeastSquares(f, []float64{3}, []float64{0}, []float64{10}, 1,
		Options{Observer: func(ev IterEvent) { history = append(history, ev.RNorm) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != res.Iterations {
		t.Fatalf("%d iteration events for %d iterations", len(history), res.Iterations)
	}
	// The trace is non-increasing (LM only accepts improvements).
	for i := 1; i < len(history); i++ {
		if history[i] > history[i-1]+1e-12 {
			t.Errorf("history rose at %d: %v -> %v", i, history[i-1], history[i])
		}
	}
	if math.Abs(res.X[0]-math.Sqrt2) > 1e-6 {
		t.Errorf("x = %v, want sqrt(2)", res.X[0])
	}
}

// TestRankDeficientJacobian: two perfectly correlated parameters make
// JᵀJ singular; the QR fallback still finds a minimizing point.
func TestRankDeficientJacobian(t *testing.T) {
	f := func(x, r []float64) error {
		// Only x[0]+x[1] is observable.
		s := x[0] + x[1]
		r[0] = s - 3
		r[1] = 2 * (s - 3)
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{0, 0},
		[]float64{-10, -10}, []float64{10, 10}, 2, Options{MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]+res.X[1]-3) > 1e-5 {
		t.Errorf("x0+x1 = %v, want 3 (rnorm %g)", res.X[0]+res.X[1], res.RNorm)
	}
}

func TestNonFiniteAtStart(t *testing.T) {
	f := func(x, r []float64) error {
		r[0] = math.NaN()
		return nil
	}
	_, err := BoundedLeastSquares(f, []float64{0}, []float64{-1}, []float64{1}, 1, Options{})
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("err = %v, want ErrNonFinite", err)
	}
}

func TestNonFiniteDerivativeColumn(t *testing.T) {
	// Finite at the start, NaN under the Jacobian's forward perturbation:
	// a poisoned derivative must fail loudly, not corrupt the step.
	f := func(x, r []float64) error {
		if x[0] > 4 {
			r[0] = math.NaN()
		} else {
			r[0] = x[0] - 3
		}
		return nil
	}
	_, err := BoundedLeastSquares(f, []float64{4}, []float64{0}, []float64{10}, 1, Options{})
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("err = %v, want ErrNonFinite", err)
	}
}

// A transient fault: the residual returns NaN for two evaluations and
// then recovers. The optimizer must route around it (grow the damping,
// shorten the step) and still reach the optimum.
func TestTransientNaNTrialRecovered(t *testing.T) {
	evals := 0
	f := func(x, r []float64) error {
		evals++
		// Eval 1 is the start, eval 2 the 1-parameter Jacobian column,
		// evals 3-4 the first two trial points — poison those.
		if evals == 3 || evals == 4 {
			r[0] = math.NaN()
			return nil
		}
		r[0] = x[0] - 3
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{4}, []float64{0}, []float64{10}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-6 {
		t.Errorf("X = %v, want 3 (rnorm %g)", res.X, res.RNorm)
	}
	if !res.Converged {
		t.Error("did not converge through the transient fault")
	}
}

// A persistent NaN wall between the start and the optimum: the
// optimizer must approach the wall from the finite side, never accept a
// non-finite point, and never report the wall itself as a NaN result.
func TestNaNWallNeverAccepted(t *testing.T) {
	const wall = 3.9
	f := func(x, r []float64) error {
		if x[0] < wall {
			r[0] = math.NaN()
			return nil
		}
		r[0] = x[0] - 3
		return nil
	}
	res, err := BoundedLeastSquares(f, []float64{4}, []float64{0}, []float64{10}, 1,
		Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.RNorm) || math.IsNaN(res.X[0]) {
		t.Fatalf("non-finite result accepted: X=%v rnorm=%v", res.X, res.RNorm)
	}
	if res.X[0] < wall {
		t.Errorf("X = %v landed inside the NaN region (< %v)", res.X[0], wall)
	}
	if res.X[0] > wall+0.05 {
		t.Errorf("X = %v, want pressed against the wall at %v", res.X[0], wall)
	}
	if math.Abs(res.RNorm-(res.X[0]-3)) > 1e-12 {
		t.Errorf("RNorm = %v inconsistent with X = %v", res.RNorm, res.X[0])
	}
}
