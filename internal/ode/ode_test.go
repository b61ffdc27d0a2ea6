package ode

import (
	"errors"
	"math"
	"testing"

	"rms/internal/linalg"
)

// exponential decay y' = -y, y(0)=1 → y(t) = e^-t.
func decay(_ float64, y, dy []float64) { dy[0] = -y[0] }

func TestRKV65Decay(t *testing.T) {
	s := NewRKV65(decay, 1, Options{RTol: 1e-10, ATol: 1e-12})
	y := []float64{1}
	if err := s.Integrate(0, 2, y); err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-2); math.Abs(y[0]-want) > 1e-9 {
		t.Errorf("y(2) = %v, want %v", y[0], want)
	}
	if s.Stats().Steps == 0 || s.Stats().FEvals == 0 {
		t.Error("stats not recorded")
	}
}

func TestBDFDecay(t *testing.T) {
	s := NewBDF(decay, 1, Options{RTol: 1e-8, ATol: 1e-10})
	y := []float64{1}
	if err := s.Integrate(0, 2, y); err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-2); math.Abs(y[0]-want) > 1e-6 {
		t.Errorf("y(2) = %v, want %v", y[0], want)
	}
}

// Harmonic oscillator: y” = -y as a 2-system; y(t) = cos t.
func harmonic(_ float64, y, dy []float64) {
	dy[0] = y[1]
	dy[1] = -y[0]
}

func TestRKV65Harmonic(t *testing.T) {
	s := NewRKV65(harmonic, 2, Options{RTol: 1e-10, ATol: 1e-12})
	y := []float64{1, 0}
	if err := s.Integrate(0, 2*math.Pi, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-8 || math.Abs(y[1]) > 1e-8 {
		t.Errorf("after one period: %v, want [1 0]", y)
	}
}

// TestRKV65ConvergenceOrder verifies ~6th-order global accuracy of the
// propagated solution with fixed steps on a smooth nonlinear problem.
func TestRKV65ConvergenceOrder(t *testing.T) {
	// y' = y·cos(t), y(0)=1 → y = e^{sin t}.
	f := func(tt float64, y, dy []float64) { dy[0] = y[0] * math.Cos(tt) }
	errAt := func(h float64) float64 {
		s := NewRKV65(f, 1, Options{FixedStep: h})
		y := []float64{1}
		if err := s.Integrate(0, 2, y); err != nil {
			t.Fatal(err)
		}
		return math.Abs(y[0] - math.Exp(math.Sin(2)))
	}
	e1 := errAt(0.1)
	e2 := errAt(0.05)
	order := math.Log2(e1 / e2)
	if order < 5.4 {
		t.Errorf("observed order %.2f (errors %g, %g), want ≈ 6", order, e1, e2)
	}
}

// TestBDFConvergenceOrders verifies the k-th order accuracy of BDF-k.
func TestBDFConvergenceOrders(t *testing.T) {
	f := func(tt float64, y, dy []float64) { dy[0] = y[0] * math.Cos(tt) }
	exact := math.Exp(math.Sin(2))
	for _, q := range []int{1, 2, 3, 4} {
		errAt := func(h float64) float64 {
			s := NewBDF(f, 1, Options{FixedStep: h, FixedOrder: q})
			y := []float64{1}
			if err := s.Integrate(0, 2, y); err != nil {
				t.Fatal(err)
			}
			return math.Abs(y[0] - exact)
		}
		e1 := errAt(0.02)
		e2 := errAt(0.01)
		order := math.Log2(e1 / e2)
		if order < float64(q)-0.7 {
			t.Errorf("BDF-%d observed order %.2f (errors %g, %g)", q, order, e1, e2)
		}
	}
}

// Stiff linear system with analytic solution:
// y1' = -1000·y1 + 999·y2, y2' = -y2; y0 = [2, 1]
// → y1 = e^{-1000t} + e^{-t}, y2 = e^{-t}.
func stiffLinear(_ float64, y, dy []float64) {
	dy[0] = -1000*y[0] + 999*y[1]
	dy[1] = -y[1]
}

func TestBDFStiffLinear(t *testing.T) {
	s := NewBDF(stiffLinear, 2, Options{RTol: 1e-8, ATol: 1e-12})
	y := []float64{2, 1}
	if err := s.Integrate(0, 1, y); err != nil {
		t.Fatal(err)
	}
	want0 := math.Exp(-1000) + math.Exp(-1)
	want1 := math.Exp(-1)
	if math.Abs(y[0]-want0) > 1e-6 {
		t.Errorf("y1(1) = %v, want %v", y[0], want0)
	}
	if math.Abs(y[1]-want1) > 1e-6 {
		t.Errorf("y2(1) = %v, want %v", y[1], want1)
	}
	// Stiffness check: BDF should take far fewer steps than an explicit
	// method whose stability bound is h < 2/1000.
	if s.Stats().Steps > 2000 {
		t.Errorf("BDF took %d steps on a stiff problem", s.Stats().Steps)
	}
}

// Robertson's problem — the classic stiff chemical kinetics test.
func robertson(_ float64, y, dy []float64) {
	dy[0] = -0.04*y[0] + 1e4*y[1]*y[2]
	dy[1] = 0.04*y[0] - 1e4*y[1]*y[2] - 3e7*y[1]*y[1]
	dy[2] = 3e7 * y[1] * y[1]
}

func TestBDFRobertson(t *testing.T) {
	s := NewBDF(robertson, 3, Options{RTol: 1e-6, ATol: 1e-10, InitialStep: 1e-6})
	y := []float64{1, 0, 0}
	if err := s.Integrate(0, 0.3, y); err != nil {
		t.Fatal(err)
	}
	// Reference values at t = 0.3 (from high-accuracy integrations of this
	// standard problem): y ≈ [0.98861, 3.4477e-5, 1.1355e-2].
	want := []float64{0.9886058, 3.447716e-5, 1.1359703e-2}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 2e-4*math.Max(1, math.Abs(want[i])) {
			t.Errorf("y[%d](0.3) = %v, want ≈ %v", i, y[i], want[i])
		}
	}
	// Mass conservation.
	if sum := y[0] + y[1] + y[2]; math.Abs(sum-1) > 1e-6 {
		t.Errorf("mass not conserved: %v", sum)
	}
}

func TestBDFRobertsonLong(t *testing.T) {
	s := NewBDF(robertson, 3, Options{RTol: 1e-7, ATol: 1e-12, InitialStep: 1e-6})
	y := []float64{1, 0, 0}
	if err := s.Integrate(0, 400, y); err != nil {
		t.Fatal(err)
	}
	if sum := y[0] + y[1] + y[2]; math.Abs(sum-1) > 1e-5 {
		t.Errorf("mass not conserved at t=400: %v", sum)
	}
	// y2 has decayed from its early peak; y3 keeps growing.
	if y[1] > 1e-4 || y[2] < 0.1 || y[2] > 0.9 {
		t.Errorf("implausible state at t=400: %v", y)
	}
}

// TestBDFRejectionsCountedOnce: Robertson to 4e5 in one call, from the
// default initial step, rejects steps both on the error test and on
// Newton failures (an infinite error norm), and Stats.Rejected counts
// each rejected attempt once, as the step events do.
func TestBDFRejectionsCountedOnce(t *testing.T) {
	var rejected, newtonFailures int
	s := NewBDF(robertson, 3, Options{RTol: 1e-6, ATol: 1e-10, Observer: func(ev StepEvent) {
		if !ev.Accepted {
			rejected++
			if math.IsInf(ev.ErrNorm, 1) {
				newtonFailures++
			}
		}
	}})
	y := []float64{1, 0, 0}
	if err := s.Integrate(0, 4e5, y); err != nil {
		t.Fatal(err)
	}
	if newtonFailures == 0 {
		t.Fatal("no Newton failure: the solve no longer exercises that rejection path")
	}
	if st := s.Stats(); st.Rejected != rejected || rejected != 53 {
		t.Errorf("Stats.Rejected = %d for %d rejected step events (%d Newton failures), want 53 each",
			st.Rejected, rejected, newtonFailures)
	}
}

func TestIntegrateBackward(t *testing.T) {
	s := NewRKV65(decay, 1, Options{})
	y := []float64{math.Exp(-2)}
	if err := s.Integrate(2, 0, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-5 {
		t.Errorf("backward integration: y(0) = %v, want 1", y[0])
	}
}

func TestZeroSpanIsNoOp(t *testing.T) {
	y := []float64{7}
	if err := NewRKV65(decay, 1, Options{}).Integrate(1, 1, y); err != nil || y[0] != 7 {
		t.Errorf("zero span: y=%v err=%v", y, err)
	}
	if err := NewBDF(decay, 1, Options{}).Integrate(1, 1, y); err != nil || y[0] != 7 {
		t.Errorf("zero span BDF: y=%v err=%v", y, err)
	}
}

func TestShapeMismatch(t *testing.T) {
	if err := NewRKV65(decay, 1, Options{}).Integrate(0, 1, []float64{1, 2}); err == nil {
		t.Error("RKV65 accepted wrong shape")
	}
	if err := NewBDF(decay, 1, Options{}).Integrate(0, 1, []float64{1, 2}); err == nil {
		t.Error("BDF accepted wrong shape")
	}
}

func TestMaxStepsAborts(t *testing.T) {
	s := NewRKV65(decay, 1, Options{MaxSteps: 3, InitialStep: 1e-9})
	y := []float64{1}
	if err := s.Integrate(0, 10, y); !errors.Is(err, ErrTooManySteps) {
		t.Errorf("err = %v, want ErrTooManySteps", err)
	}
}

// An explosive problem whose solution escapes to infinity in finite time
// forces step underflow.
func TestStepUnderflow(t *testing.T) {
	blowup := func(_ float64, y, dy []float64) { dy[0] = y[0] * y[0] }
	for name, s := range map[string]interface {
		Integrate(t0, t1 float64, y []float64) error
	}{"RKV65": NewRKV65(blowup, 1, Options{}), "BDF": NewBDF(blowup, 1, Options{})} {
		y := []float64{1}
		err := s.Integrate(0, 2, y) // singularity at t=1
		if !errors.Is(err, ErrStepTooSmall) && !errors.Is(err, ErrTooManySteps) {
			t.Errorf("%s: err = %v, want step underflow or step-limit abort", name, err)
		}
	}
}

// The solvers agree with each other on a moderately stiff kinetics system.
func TestSolversAgree(t *testing.T) {
	f := func(_ float64, y, dy []float64) {
		// A <-> B -> C with moderate rates.
		dy[0] = -5*y[0] + 2*y[1]
		dy[1] = 5*y[0] - 2*y[1] - 3*y[1]
		dy[2] = 3 * y[1]
	}
	y1 := []float64{1, 0, 0}
	y2 := []float64{1, 0, 0}
	if err := NewRKV65(f, 3, Options{RTol: 1e-9, ATol: 1e-12}).Integrate(0, 3, y1); err != nil {
		t.Fatal(err)
	}
	if err := NewBDF(f, 3, Options{RTol: 1e-9, ATol: 1e-12}).Integrate(0, 3, y2); err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-5 {
			t.Errorf("solvers disagree at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

// TestBDFContinuation: integrating record-to-record (the estimator's
// Fig. 9 loop) must give the same answer as one long integration, while
// reusing solver state instead of restarting at order 1 each interval.
func TestBDFContinuation(t *testing.T) {
	f := func(tt float64, y, dy []float64) { dy[0] = y[0] * math.Cos(tt) }
	opts := Options{RTol: 1e-9, ATol: 1e-12}

	one := NewBDF(f, 1, opts)
	yOne := []float64{1}
	if err := one.Integrate(0, 3, yOne); err != nil {
		t.Fatal(err)
	}

	many := NewBDF(f, 1, opts)
	yMany := []float64{1}
	const intervals = 120
	for i := 0; i < intervals; i++ {
		t0 := 3 * float64(i) / intervals
		t1 := 3 * float64(i+1) / intervals
		if err := many.Integrate(t0, t1, yMany); err != nil {
			t.Fatal(err)
		}
	}
	exact := math.Exp(math.Sin(3))
	if math.Abs(yMany[0]-exact) > 1e-6 {
		t.Errorf("continued result %v, exact %v", yMany[0], exact)
	}
	if math.Abs(yOne[0]-exact) > 1e-6 {
		t.Errorf("single-shot result %v, exact %v", yOne[0], exact)
	}
	// Continuation must not pay a full restart per interval: the total
	// f-eval count should stay well below 120 independent solves. An
	// order-1 restart costs at least ~6 evals per interval plus Jacobian
	// rebuilds; with continuation the whole run needs a few hundred.
	if evals := many.Stats().FEvals; evals > 4000 {
		t.Errorf("continued solve used %d f-evals; continuation is not engaging", evals)
	}
}

// TestBDFContinuationInvalidated: touching y between calls forces a
// clean restart, not silent use of stale history.
func TestBDFContinuationInvalidated(t *testing.T) {
	s := NewBDF(decay, 1, Options{RTol: 1e-9, ATol: 1e-12})
	y := []float64{1}
	if err := s.Integrate(0, 1, y); err != nil {
		t.Fatal(err)
	}
	y[0] = 5 // caller changes state: history is no longer valid
	if err := s.Integrate(1, 2, y); err != nil {
		t.Fatal(err)
	}
	want := 5 * math.Exp(-1)
	if math.Abs(y[0]-want) > 1e-6 {
		t.Errorf("restart after mutation: %v, want %v", y[0], want)
	}
}

// TestBDFAnalyticJacobian: supplying the exact Jacobian gives the same
// solution with fewer right-hand-side evaluations.
func TestBDFAnalyticJacobian(t *testing.T) {
	run := func(opts Options) ([]float64, Stats) {
		s := NewBDF(robertson, 3, opts)
		y := []float64{1, 0, 0}
		if err := s.Integrate(0, 50, y); err != nil {
			t.Fatal(err)
		}
		return y, s.Stats()
	}
	base := Options{RTol: 1e-7, ATol: 1e-11, InitialStep: 1e-6}
	withJac := base
	withJac.Jacobian = robertsonJac
	yFD, stFD := run(base)
	yAJ, stAJ := run(withJac)
	for i := range yFD {
		if math.Abs(yFD[i]-yAJ[i]) > 1e-5*math.Max(1, math.Abs(yFD[i])) {
			t.Errorf("y[%d]: fd %v vs analytic %v", i, yFD[i], yAJ[i])
		}
	}
	if stAJ.FEvals >= stFD.FEvals {
		t.Errorf("analytic Jacobian used %d f-evals, finite differences %d; want fewer",
			stAJ.FEvals, stFD.FEvals)
	}
	if stAJ.JEvals == 0 {
		t.Error("analytic Jacobian never called")
	}
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

// TestBDFContinuationBitIdentical: for each Jacobian source, three
// Integrate calls that continue one another reproduce one call over the
// whole span bit for bit — the free-running step sequence does not see
// the output times — and each continued call's first step attempt
// starts where the previous call's last accepted step ended. The
// observer sees one StepEvent per attempt, and their accepted and
// rejected steps, Newton iterations and factorizations add up to Stats.
func TestBDFContinuationBitIdentical(t *testing.T) {
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
			Options{RTol: 1e-8, ATol: 1e-12, InitialStep: 1e-4}},
		{"robertson", robertson, 3, []float64{1, 0, 0}, 0.3,
			Options{RTol: 1e-6, ATol: 1e-10, InitialStep: 1e-6}},
		{"robertsonJacobian", robertson, 3, []float64{1, 0, 0}, 0.3, withJac},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			whole := NewBDF(tc.f, tc.n, tc.opts)
			want := append([]float64(nil), tc.y0...)
			if err := whole.Integrate(0, tc.t1, want); err != nil {
				t.Fatal(err)
			}

			var events []StepEvent
			opts := tc.opts
			opts.Observer = func(ev StepEvent) { events = append(events, ev) }
			s := NewBDF(tc.f, tc.n, opts)
			y := append([]float64(nil), tc.y0...)
			var starts []int // index of each call's first event
			for i := 1; i <= 3; i++ {
				starts = append(starts, len(events))
				if err := s.Integrate(tc.t1*float64(i-1)/3, tc.t1*float64(i)/3, y); err != nil {
					t.Fatal(err)
				}
			}
			for i := range want {
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Errorf("y[%d] = %v after three continued calls, one call %v", i, y[i], want[i])
				}
			}
			st := s.Stats()
			if st != whole.Stats() {
				t.Errorf("continued stats %+v != one-call stats %+v", st, whole.Stats())
			}

			var sum Stats
			var last StepEvent
			for i, ev := range events {
				for _, start := range starts[1:] {
					if i == start && ev.T != last.T+last.H {
						t.Errorf("continued call starts at t=%v, previous step ended at %v", ev.T, last.T+last.H)
					}
				}
				if ev.Accepted {
					sum.Steps++
					last = ev
				} else {
					sum.Rejected++
				}
				sum.NewtonIters += ev.NewtonIters
				sum.Factorizations += ev.Factorizations
			}
			if sum.Steps != st.Steps || sum.Rejected != st.Rejected ||
				sum.NewtonIters != st.NewtonIters || sum.Factorizations != st.Factorizations {
				t.Errorf("step events add up to %d steps, %d rejections, %d Newton iterations, %d factorizations; Stats %+v",
					sum.Steps, sum.Rejected, sum.NewtonIters, sum.Factorizations, st)
			}
		})
	}
}
