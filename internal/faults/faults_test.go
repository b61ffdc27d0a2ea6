package faults_test

import (
	"errors"
	"testing"

	"rms/internal/faults"
	"rms/internal/mpi"
	"rms/internal/ode"
)

// The plan is the mpi runtime's collective-entry hook.
var _ mpi.Hook = (*faults.Plan)(nil)

// Injected solve failures must look like real solver breakdowns so the
// retry policy treats them identically.
func TestInjectedErrorIsRetryable(t *testing.T) {
	if !errors.Is(faults.ErrInjected, ode.ErrStepTooSmall) {
		t.Fatal("ErrInjected does not wrap ode.ErrStepTooSmall")
	}
}

func TestFailFileAllAttempts(t *testing.T) {
	p := faults.NewPlan(1).FailFile(3, 2)
	for attempt := 0; attempt < 5; attempt++ {
		if err := p.FileSolve(2, 0, 3, attempt); !errors.Is(err, faults.ErrInjected) {
			t.Errorf("call 2 file 3 attempt %d: err = %v, want injected", attempt, err)
		}
	}
	// Other calls and files stay clean.
	if err := p.FileSolve(1, 0, 3, 0); err != nil {
		t.Errorf("call 1: err = %v", err)
	}
	if err := p.FileSolve(2, 0, 4, 0); err != nil {
		t.Errorf("file 4: err = %v", err)
	}
	if c := p.Counts(); c.FileFailures != 5 {
		t.Errorf("counts = %+v", c)
	}
}

func TestFlakyFileRecoversOnRetry(t *testing.T) {
	p := faults.NewPlan(1).FlakyFile(0, 0, 2)
	for attempt, want := range []bool{true, true, false, false} {
		err := p.FileSolve(0, 0, 0, attempt)
		if got := err != nil; got != want {
			t.Errorf("attempt %d: injected = %v, want %v", attempt, got, want)
		}
	}
}

// Rate-based injection is a pure function of (seed, call, file): the
// same plan parameters give the same schedule regardless of the order
// ranks consult it, and the empirical rate tracks the configured one.
func TestFailRateDeterministicAndCalibrated(t *testing.T) {
	decide := func(seed int64) []bool {
		p := faults.NewPlan(seed).FailRate(0.3)
		out := make([]bool, 0, 1000)
		for call := 0; call < 10; call++ {
			for file := 0; file < 100; file++ {
				out = append(out, p.FileSolve(call, 0, file, 0) != nil)
			}
		}
		return out
	}
	a, b := decide(42), decide(42)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical plans", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails < 200 || fails > 400 {
		t.Errorf("injected %d/1000 at rate 0.3", fails)
	}
	c := decide(43)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds gave identical schedules")
	}
	// Retries of a rate-failed solve succeed (transient fault model).
	p := faults.NewPlan(42).FailRate(1)
	if err := p.FileSolve(0, 0, 0, 0); err == nil {
		t.Error("rate 1 did not inject")
	}
	if err := p.FileSolve(0, 0, 0, 1); err != nil {
		t.Errorf("retry still injected: %v", err)
	}
}

// Keyed crash/stall triggers count collectives cumulatively per rank
// across communicator runs and fire exactly once.
func TestCrashRankOneShotAcrossRuns(t *testing.T) {
	p := faults.NewPlan(1).CrashRank(1, 2)
	// First run: rank 1 enters 2 collectives (cumulative 0 and 1).
	for seq := 0; seq < 2; seq++ {
		if act := p.AtCollective(1, seq); act != mpi.ActProceed {
			t.Fatalf("run 1 seq %d: action = %v", seq, act)
		}
	}
	// Second run: rank 1's first entry is cumulative #2 — the trigger.
	if act := p.AtCollective(1, 0); act != mpi.ActCrash {
		t.Fatal("cumulative collective 2 did not crash")
	}
	// Consumed: the same cumulative position never re-fires.
	for seq := 1; seq < 4; seq++ {
		if act := p.AtCollective(1, seq); act != mpi.ActProceed {
			t.Fatalf("post-crash seq %d: action = %v", seq, act)
		}
	}
	if c := p.Counts(); c.Crashes != 1 {
		t.Errorf("counts = %+v", c)
	}
}

// End to end through the runtime: a planned crash kills exactly the
// planned rank at the planned collective, and a planned stall becomes a
// watchdog-diagnosed deadlock.
func TestPlanDrivesRuntime(t *testing.T) {
	p := faults.NewPlan(7).CrashRank(2, 1)
	rep := mpi.RunErr(4, mpi.RunConfig{Hook: p}, func(c *mpi.Comm) error {
		c.AllReduce([]float64{1})
		c.AllReduce([]float64{1})
		return nil
	})
	if got := rep.Culprits(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("culprits = %v, want [2]", got)
	}
	var re *mpi.RankError
	if !errors.As(rep.Errs[2], &re) {
		t.Errorf("rank 2 error = %v", rep.Errs[2])
	}
	if c := p.Counts(); c.Crashes != 1 {
		t.Errorf("counts = %+v", c)
	}

	p2 := faults.NewPlan(7).StallRank(0, 0)
	rep2 := mpi.RunErr(3, mpi.RunConfig{Hook: p2, Watchdog: 100_000_000}, func(c *mpi.Comm) error {
		c.AllReduce([]float64{1})
		return nil
	})
	if !rep2.WatchdogFired {
		t.Fatalf("stall not diagnosed; errs = %v", rep2.Errs)
	}
	if got := rep2.Culprits(); len(got) != 1 || got[0] != 0 {
		t.Errorf("culprits = %v, want [0]", got)
	}
}
