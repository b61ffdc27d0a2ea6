// Chaos suite: the `make chaos` soak target. Each test drives one or
// more graceful-degradation ladders with injected faults and asserts the
// matching degrade.* telemetry counter fires — the acceptance bar that
// every ladder is exercised by injection, not just reachable in theory.
// All schedules are deterministic (faults.Plan keyed streams), so the
// suite is stable under -race and -count=N.

package estimator

import (
	"math"
	"testing"
	"time"

	"rms/internal/faults"
	"rms/internal/linalg"
	"rms/internal/telemetry"
)

// TestChaosAllLaddersFire runs one scenario per degradation ladder into
// a shared telemetry registry and then demands every degrade.* counter
// incremented: sparse→dense LU and the attempt-watchdog timeout.
func TestChaosAllLaddersFire(t *testing.T) {
	reg := telemetry.NewRegistry()
	solve := func(e *Estimator, calls int) {
		t.Helper()
		r := make([]float64, e.ResidualDim())
		for c := 0; c < calls; c++ {
			if err := e.Objective([]float64{1.1}, r); err != nil {
				t.Fatalf("call %d: %v", c, err)
			}
		}
	}

	// Ladder 1: sparse LU → dense LU. A poisoned sparse Jacobian makes
	// every sparse refactorization fail; the BDF solver retires the
	// sparse path and finishes on dense LU.
	m := decayModel(t)
	m.SolverOpts.SparseMinDim = 2
	m.SolverOpts.SparseThreshold = 1
	m.SolverOpts.SparsePattern = linalg.NewCSRPattern(2, []int32{1}, []int32{0}, true)
	m.SolverOpts.SparseJacobian = func(_ float64, _ []float64, dst *linalg.CSR) {
		dst.Zero()
		dst.Data[dst.Index(0, 0)] = math.NaN()
	}
	e, err := New(m, makeFiles(1.0, []int{20}), Config{Ranks: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	solve(e, 1)
	if got := e.Degrade().SparseToDense; got < 1 {
		t.Errorf("SparseToDense = %d, want >= 1", got)
	}

	// Watchdog: an injected hang parked on the attempt budget, recovered
	// by retry.
	e, err = New(decayModel(t), makeFiles(1.0, []int{20, 20}), Config{
		Ranks: 2, FaultTolerant: true, Metrics: reg,
		Faults: faults.NewPlan(7).HangFile(0, 0),
		Retry:  RetryPolicy{AttemptTimeout: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	solve(e, 1)
	if got := e.Degrade().SolveTimeouts; got != 1 {
		t.Errorf("SolveTimeouts = %d, want 1", got)
	}

	for _, name := range []string{
		"degrade.sparse_to_dense", "degrade.solve_timeout",
	} {
		if v := reg.Counter(name).Value(); v < 1 {
			t.Errorf("counter %s = %d, want >= 1", name, v)
		}
	}
}

// TestChaosCheckpointResumeUnderFaults is the satellite resume-under-
// chaos check: a fault-tolerant run with a deterministic injection
// schedule, interrupted at a call boundary and resumed from snapshots of
// BOTH the estimator and the fault plan, must reproduce the
// uninterrupted run's remaining residuals bit for bit — including the
// injections that fire after the resume point.
func TestChaosCheckpointResumeUnderFaults(t *testing.T) {
	files := []int{25, 20, 30}
	mkPlan := func() *faults.Plan {
		return faults.NewPlan(13).
			FlakyFile(0, 2, 1). // one transient failure after the resume point
			TimeoutFile(1, 3)   // and an injected timeout on the last call
	}
	mkEst := func(plan *faults.Plan) *Estimator {
		t.Helper()
		e, err := New(decayModel(t), makeFiles(1.0, files), Config{
			Ranks: 2, FaultTolerant: true, Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	ref := mkEst(mkPlan())
	want := resumeResiduals(t, ref, 4)

	planB := mkPlan()
	interrupted := mkEst(planB)
	resumeResiduals(t, interrupted, 2)
	estSt := interrupted.Snapshot()
	planSt := planB.Snapshot()

	resumed := mkEst(faults.FromState(planSt))
	if err := resumed.Restore(estSt); err != nil {
		t.Fatal(err)
	}
	got := resumeResiduals(t, resumed, 2)
	for c := 0; c < 2; c++ {
		for i := range want[2+c] {
			if want[2+c][i] != got[c][i] {
				t.Fatalf("resumed call %d residual[%d]: %v != %v",
					2+c, i, got[c][i], want[2+c][i])
			}
		}
	}
	if got := resumed.Degrade().SolveTimeouts; got != 1 {
		t.Errorf("post-resume SolveTimeouts = %d, want 1 (injection after resume)", got)
	}
	if got := resumed.Recovery().Retries; got < 2 {
		t.Errorf("post-resume Retries = %d, want >= 2", got)
	}
}

// TestChaosSoakFaultTolerantFinishes is the longer soak: many calls with
// a mixed injection schedule (hangs, timeouts, flaky files)
// under the fault-tolerant path; the run must finish every call and the
// recovery ledger must show the interventions happened.
func TestChaosSoakFaultTolerantFinishes(t *testing.T) {
	plan := faults.NewPlan(29).
		HangFile(0, 1).
		TimeoutFile(2, 3).
		FlakyFile(1, 5, 1).
		TimeoutFile(0, 7)
	e, err := New(decayModel(t), makeFiles(1.0, []int{25, 20, 30}), Config{
		Ranks: 3, FaultTolerant: true, Faults: plan,
		Retry: RetryPolicy{AttemptTimeout: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	for c := 0; c < 9; c++ {
		if err := e.Objective([]float64{1.0 + 0.05*float64(c)}, r); err != nil {
			t.Fatalf("soak call %d: %v", c, err)
		}
	}
	if got := e.Degrade().SolveTimeouts; got < 3 {
		t.Errorf("SolveTimeouts = %d, want >= 3 (one hang + two timeouts)", got)
	}
	if got := e.Recovery().Retries; got < 4 {
		t.Errorf("Retries = %d, want >= 4", got)
	}
	if got := e.Recovery().PenalizedFiles; got != 0 {
		t.Errorf("PenalizedFiles = %d — every injection was transient", got)
	}
}
