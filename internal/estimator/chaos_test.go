// Chaos suite: the `make chaos` soak target. The tests drive the
// graceful-degradation ladder and the failure path with injected faults
// and assert the matching telemetry fires — the acceptance bar that every
// rung is exercised by injection, not just reachable in theory. All
// schedules are deterministic (faults.Plan keyed streams), so the suite
// is stable under -race and -count=N.

package estimator

import (
	"math"
	"testing"

	"rms/internal/faults"
	"rms/internal/linalg"
	"rms/internal/telemetry"
)

// TestChaosAllLaddersFire drives the degradation ladder, sparse→dense
// LU, through the estimator's retry path and demands its degrade.*
// counter incremented.
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

	if v := reg.Counter("degrade.sparse_to_dense").Value(); v < 1 {
		t.Errorf("counter degrade.sparse_to_dense = %d, want >= 1", v)
	}
}

// TestChaosCheckpointResumeUnderFaults is the resume-under-chaos check:
// a run with a deterministic injection schedule, interrupted at a call
// boundary and resumed from an estimator snapshot with the plan rebuilt
// from its schedule, must reproduce the uninterrupted run's remaining
// residuals bit for bit — including the injections that fire after the
// resume point. The schedule is keyed by (file, call), so the restored
// call index alone decides which faults still fire.
func TestChaosCheckpointResumeUnderFaults(t *testing.T) {
	files := []int{25, 20, 30}
	mkPlan := func() *faults.Plan {
		return faults.NewPlan(13).
			FlakyFile(0, 2, 1). // one transient failure after the resume point
			FlakyFile(1, 3, 2)  // and two on the last call
	}
	mkEst := func(plan *faults.Plan) *Estimator {
		t.Helper()
		e, err := New(decayModel(t), makeFiles(1.0, files), Config{
			Ranks: 2, Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	ref := mkEst(mkPlan())
	want := resumeResiduals(t, ref, 4)

	interrupted := mkEst(mkPlan())
	resumeResiduals(t, interrupted, 2)
	estSt := interrupted.Snapshot()

	planC := mkPlan()
	resumed := mkEst(planC)
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
	if got := planC.Counts().FileFailures; got != 3 {
		t.Errorf("post-resume injections = %d, want 3 (all after the resume point)", got)
	}
	if got := resumed.Recovery(); got.Retries != 3 || got.PenalizedFiles != 0 {
		t.Errorf("post-resume recovery = %+v, want 3 retries and no rejected file", got)
	}
}

// TestChaosSoakFaultTolerantFinishes is the longer soak: many calls with
// a mixed injection schedule (flaky files and a rank crash); the run must
// finish every call and the recovery ledger must show the interventions
// happened.
func TestChaosSoakFaultTolerantFinishes(t *testing.T) {
	// Each call costs every rank two collectives, so rank 1's cumulative
	// collective 8 lands in call 4.
	plan := faults.NewPlan(29).
		FlakyFile(0, 1, 1).
		FlakyFile(2, 3, 2).
		FlakyFile(1, 5, 1).
		FlakyFile(0, 7, 1).
		CrashRank(1, 8)
	e, err := New(decayModel(t), makeFiles(1.0, []int{25, 20, 30}), Config{
		Ranks: 3, Faults: plan,
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
	rec := e.Recovery()
	if rec.Retries != 5 || rec.RankFailures != 1 || rec.RerunCalls != 1 {
		t.Errorf("recovery = %+v, want 5 retries and one recovered rank", rec)
	}
	if rec.PenalizedFiles != 0 {
		t.Errorf("PenalizedFiles = %d — every solve injection was transient", rec.PenalizedFiles)
	}
}
