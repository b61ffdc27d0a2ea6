package ode

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rms/internal/budget"
	"rms/internal/linalg"
)

// stiffDecay2 is the small stiff test system used across ode tests.
func stiffDecay2() (Func, []float64) {
	f := func(_ float64, y, dy []float64) {
		dy[0] = -1000*y[0] + y[1]
		dy[1] = y[0] - 2*y[1]
	}
	return f, []float64{1, 0.5}
}

func TestBDFBudgetCancelMidIntegration(t *testing.T) {
	f, y0 := stiffDecay2()
	bud := budget.New()
	evals := 0
	wrapped := func(tt float64, y, dy []float64) {
		evals++
		if evals == 40 {
			bud.Cancel("test")
		}
		f(tt, y, dy)
	}
	y := append([]float64(nil), y0...)
	s := NewBDF(wrapped, 2, Options{Budget: bud})
	err := s.Integrate(0, 50, y)
	if !budget.Exhausted(err) {
		t.Fatalf("want budget trip, got %v", err)
	}
	// Partial result must be well-formed: the last accepted state.
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("y[%d] = %g after cancellation", i, v)
		}
	}
	// A second call on the tripped budget fails immediately, without
	// spinning the solver.
	pre := s.Stats().FEvals
	if err := s.Integrate(0, 50, append([]float64(nil), y0...)); !budget.Exhausted(err) {
		t.Fatalf("tripped budget allowed integration: %v", err)
	}
	if s.Stats().FEvals != pre {
		t.Fatal("tripped budget still evaluated the RHS")
	}
}

func TestRKV65BudgetCancel(t *testing.T) {
	f := func(_ float64, y, dy []float64) { dy[0] = -y[0] }
	bud := budget.New()
	bud.Cancel("pre-cancelled")
	s := NewRKV65(f, 1, Options{Budget: bud})
	y := []float64{1}
	if err := s.Integrate(0, 10, y); !budget.Exhausted(err) {
		t.Fatalf("want budget trip, got %v", err)
	}
	if s.Stats().FEvals != 0 {
		t.Fatal("cancelled budget still evaluated the RHS")
	}
}

// TestBDFBudgetTripHoldsLastAccepted: a budget trip mid-step leaves y
// at the solver's last accepted state — the newest history point, at the
// time the last accepted step event reached, which the error reports —
// not at the input and not mid-step.
func TestBDFBudgetTripHoldsLastAccepted(t *testing.T) {
	f, y0 := stiffDecay2()
	bud := budget.New()
	calls := 0
	var last StepEvent
	s := NewBDF(func(tt float64, y, dy []float64) {
		if calls++; calls == 40 {
			bud.Cancel("test")
		}
		f(tt, y, dy)
	}, 2, Options{Budget: bud, Observer: func(ev StepEvent) {
		if ev.Accepted {
			last = ev
		}
	}})
	y := append([]float64(nil), y0...)
	err := s.Integrate(0, 50, y)
	if !budget.Exhausted(err) {
		t.Fatalf("want budget trip, got %v", err)
	}
	if last.H == 0 {
		t.Fatal("budget tripped before the first accepted step")
	}
	if at := fmt.Sprintf("(at t=%g)", last.T+last.H); !strings.Contains(err.Error(), at) {
		t.Errorf("error %q does not report the last accepted time %s", err, at)
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(s.hist[0][i]) {
			t.Errorf("y[%d] = %v, last accepted state %v", i, y[i], s.hist[0][i])
		}
	}
	if y[0] == y0[0] && y[1] == y0[1] {
		t.Error("y still holds the input state")
	}
}

func TestBDFSparseDemotionLadder(t *testing.T) {
	const n = 120
	f, denseJac, pattern, _ := tridiagSystem(n, 400, 3)
	y0 := make([]float64, n)
	for i := range y0 {
		y0[i] = math.Sin(float64(i+1)) + 1.5
	}

	// Reference: the dense-only solve.
	yDense := append([]float64(nil), y0...)
	if err := NewBDF(f, n, Options{Jacobian: denseJac}).Integrate(0, 0.5, yDense); err != nil {
		t.Fatal(err)
	}

	// A sparse Jacobian that always poisons its pivot makes every sparse
	// refactorization fail; the solver must demote itself to dense LU and
	// still finish the integration.
	poisoned := func(_ float64, _ []float64, dst *linalg.CSR) {
		dst.Zero()
		dst.Data[dst.Index(0, 0)] = math.NaN()
	}
	s := NewBDF(f, n, Options{
		Jacobian: denseJac, SparsePattern: pattern, SparseJacobian: poisoned,
	})
	y := append([]float64(nil), y0...)
	if err := s.Integrate(0, 0.5, y); err != nil {
		t.Fatalf("demoted solve failed: %v", err)
	}
	if s.Sparse() {
		t.Fatal("solver still claims the sparse path after persistent failures")
	}
	st := s.Stats()
	if st.SparseDemotions != 1 {
		t.Fatalf("SparseDemotions = %d, want 1", st.SparseDemotions)
	}
	if st.SparseFactorizations != 0 {
		t.Fatalf("poisoned sparse path recorded %d successful factorizations", st.SparseFactorizations)
	}
	for i := range y {
		tol := 1e-5 * (1 + math.Abs(yDense[i]))
		if math.Abs(y[i]-yDense[i]) > tol {
			t.Fatalf("y[%d]: demoted %g vs dense %g", i, y[i], yDense[i])
		}
	}
}

func TestBDFSparseTransientFailureRecovers(t *testing.T) {
	const n = 120
	f, denseJac, pattern, sparseJac := tridiagSystem(n, 400, 3)
	y0 := make([]float64, n)
	for i := range y0 {
		y0[i] = math.Sin(float64(i+1)) + 1.5
	}
	// Fail exactly one refactorization, then behave: one failure is below
	// the demotion limit, so the solver must stay sparse.
	calls := 0
	flaky := func(tt float64, y []float64, dst *linalg.CSR) {
		calls++
		if calls == 1 {
			dst.Zero()
			dst.Data[dst.Index(0, 0)] = math.NaN()
			return
		}
		sparseJac(tt, y, dst)
	}
	s := NewBDF(f, n, Options{
		Jacobian: denseJac, SparsePattern: pattern, SparseJacobian: flaky,
	})
	y := append([]float64(nil), y0...)
	if err := s.Integrate(0, 0.5, y); err != nil {
		t.Fatal(err)
	}
	if !s.Sparse() {
		t.Fatal("one transient failure must not demote the sparse path")
	}
	if st := s.Stats(); st.SparseDemotions != 0 || st.SparseFactorizations == 0 {
		t.Fatalf("stats after transient failure: %+v", st)
	}
}
