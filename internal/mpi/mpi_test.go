package mpi

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"rms/internal/budget"
	"rms/internal/telemetry"
)

// run is RunErr for tests whose ranks must all succeed.
func run(t *testing.T, size int, fn func(c *Comm)) {
	t.Helper()
	rep := RunErr(size, RunConfig{}, func(c *Comm) error {
		fn(c)
		return nil
	})
	if !rep.OK() {
		t.Fatalf("run failed: %v", rep.Err())
	}
}

func TestRankAndSize(t *testing.T) {
	var seen [4]int32
	run(t, 4, func(c *Comm) {
		if c.Size() != 4 {
			t.Errorf("Size = %d", c.Size())
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
	})
	for r, n := range seen {
		if n != 1 {
			t.Errorf("rank %d ran %d times", r, n)
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	const n = 6
	run(t, n, func(c *Comm) {
		local := []float64{float64(c.Rank()), 1}
		got := c.AllReduce(local)
		want0 := float64(n * (n - 1) / 2)
		if got[0] != want0 || got[1] != n {
			t.Errorf("rank %d: AllReduce = %v", c.Rank(), got)
		}
		// Mutating the result must not affect other ranks (fresh copies).
		got[0] = -1
	})
}

// The sum is taken in rank order, so it equals the sequential sum bit
// for bit whatever order the ranks arrive in.
func TestAllReduceMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(8)
		length := 1 + rng.Intn(20)
		data := make([][]float64, size)
		want := make([]float64, length)
		for r := range data {
			data[r] = make([]float64, length)
			for i := range data[r] {
				data[r][i] = rng.NormFloat64()
				want[i] += data[r][i]
			}
		}
		var bad atomic.Bool
		run(t, size, func(c *Comm) {
			got := c.AllReduce(data[c.Rank()])
			for i := range want {
				if got[i] != want[i] {
					bad.Store(true)
				}
			}
		})
		return !bad.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A rank that panics after completed rounds is the one culprit, its
// panic value is kept, and the peers blocked in the next AllReduce are
// released; the states show the last round the culprit completed. (A
// peer may itself be released inside the culprit's last round, so only
// its first round is certain.)
func TestPanicPropagates(t *testing.T) {
	rep := RunErr(3, RunConfig{}, func(c *Comm) error {
		for round := 0; round < 3; round++ {
			if c.Rank() == 1 && round == 2 {
				panic("boom")
			}
			c.AllReduce([]float64{1})
		}
		return nil
	})
	if got := rep.Culprits(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("culprits = %v, want [1]", got)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "rank 1 panicked: boom") {
		t.Errorf("Err = %v", err)
	}
	for _, r := range []int{0, 2} {
		if !errors.Is(rep.Errs[r], ErrAborted) {
			t.Errorf("rank %d error = %v, want ErrAborted", r, rep.Errs[r])
		}
	}
	if st := rep.States[1]; st.Collectives != 2 || st.LastCollective != "AllReduce #1" {
		t.Errorf("rank 1 state = %+v, want two completed rounds", st)
	}
	for _, r := range []int{0, 2} {
		if st := rep.States[r]; st.Collectives < 1 {
			t.Errorf("rank %d state = %+v, want round 0 completed", r, st)
		}
	}
}

func TestInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size 0 accepted")
		}
	}()
	RunErr(0, RunConfig{}, func(c *Comm) error { return nil })
}

func TestSingleRankCollectives(t *testing.T) {
	run(t, 1, func(c *Comm) {
		local := []float64{5}
		got := c.AllReduce(local)
		if got[0] != 5 {
			t.Errorf("AllReduce = %v", got)
		}
		got[0] = -1
		if local[0] != 5 {
			t.Error("AllReduce returned the caller's own slice")
		}
	})
}

func TestManyRounds(t *testing.T) {
	// Repeated collectives reuse the plumbing without deadlock.
	run(t, 6, func(c *Comm) {
		for round := 0; round < 100; round++ {
			got := c.AllReduce([]float64{1})
			if got[0] != 6 {
				t.Errorf("round %d: %v", round, got)
				return
			}
		}
	})
}

// ---- failures: RunErr, hooks, watchdog, budget ----

// hookFunc adapts a function to the Hook interface for tests.
type hookFunc func(rank, seq int) HookAction

func (h hookFunc) AtCollective(rank, seq int) HookAction { return h(rank, seq) }

func TestRunErrClean(t *testing.T) {
	rep := RunErr(4, RunConfig{}, func(c *Comm) error {
		c.AllReduce([]float64{1})
		return nil
	})
	if !rep.OK() {
		t.Fatalf("clean run not OK: %v", rep.Errs)
	}
	if rep.WatchdogFired {
		t.Error("watchdog fired on a clean run")
	}
	if got := rep.Culprits(); len(got) != 0 {
		t.Errorf("culprits = %v on a clean run", got)
	}
	if rep.Err() != nil {
		t.Errorf("Err = %v on a clean run", rep.Err())
	}
	for r, st := range rep.States {
		if !st.Done || st.Collectives != 1 {
			t.Errorf("rank %d state = %+v", r, st)
		}
	}
}

// A rank panic under RunErr becomes a per-rank error instead of a
// re-raised panic; peers blocked in the collective unwind with
// ErrAborted and are not culprits.
func TestRunErrRankPanic(t *testing.T) {
	rep := RunErr(3, RunConfig{}, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.AllReduce([]float64{1})
		return nil
	})
	if rep.OK() {
		t.Fatal("failed run reported OK")
	}
	var re *RankError
	if !errors.As(rep.Errs[1], &re) || re.Rank != 1 || re.Val != "boom" {
		t.Errorf("rank 1 error = %v", rep.Errs[1])
	}
	for _, r := range []int{0, 2} {
		if !errors.Is(rep.Errs[r], ErrAborted) {
			t.Errorf("rank %d error = %v, want ErrAborted", r, rep.Errs[r])
		}
	}
	if got := rep.Culprits(); len(got) != 1 || got[0] != 1 {
		t.Errorf("culprits = %v, want [1]", got)
	}
	if !errors.As(rep.Err(), &re) {
		t.Errorf("Err = %v, want the rank 1 panic", rep.Err())
	}
}

// A returned error is the rank's own failure and marks it a culprit.
func TestRunErrReturnedError(t *testing.T) {
	sentinel := errors.New("local failure")
	rep := RunErr(2, RunConfig{}, func(c *Comm) error {
		if c.Rank() == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(rep.Errs[0], sentinel) {
		t.Errorf("rank 0 error = %v", rep.Errs[0])
	}
	if got := rep.Culprits(); len(got) != 1 || got[0] != 0 {
		t.Errorf("culprits = %v, want [0]", got)
	}
}

// A returned error aborts the communicator the way a panic does: a peer
// blocked in AllReduce is released with ErrAborted instead of waiting
// forever, even with no watchdog armed.
func TestRunErrReturnedErrorReleasesPeers(t *testing.T) {
	sentinel := errors.New("local failure")
	done := make(chan *RunReport, 1)
	go func() {
		done <- RunErr(2, RunConfig{}, func(c *Comm) error {
			if c.Rank() == 0 {
				return sentinel
			}
			c.AllReduce([]float64{1})
			return nil
		})
	}()
	var rep *RunReport
	select {
	case rep = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunErr still blocked 5s after rank 0 returned an error")
	}
	if !errors.Is(rep.Errs[0], sentinel) {
		t.Errorf("rank 0 error = %v, want the returned error", rep.Errs[0])
	}
	if !errors.Is(rep.Errs[1], ErrAborted) {
		t.Errorf("rank 1 error = %v, want ErrAborted", rep.Errs[1])
	}
	if got := rep.Culprits(); len(got) != 1 || got[0] != 0 {
		t.Errorf("culprits = %v, want [0]", got)
	}
}

// An injected crash at a collective entry surfaces as that rank's
// RankError, exactly like a process death mid-protocol.
func TestHookCrash(t *testing.T) {
	rep := RunErr(3, RunConfig{
		Hook: hookFunc(func(rank, seq int) HookAction {
			if rank == 1 && seq == 0 {
				return ActCrash
			}
			return ActProceed
		}),
	}, func(c *Comm) error {
		c.AllReduce([]float64{1})
		return nil
	})
	var re *RankError
	if !errors.As(rep.Errs[1], &re) || re.Rank != 1 {
		t.Fatalf("rank 1 error = %v, want injected-crash RankError", rep.Errs[1])
	}
	if got := rep.Culprits(); len(got) != 1 || got[0] != 1 {
		t.Errorf("culprits = %v, want [1]", got)
	}
}

// Acceptance: the watchdog converts an injected collective deadlock (a
// hook stall) into a diagnosed error with a per-rank state dump — never
// a hung test — and its error event carries that dump.
func TestWatchdogDiagnosesInjectedDeadlock(t *testing.T) {
	rec := telemetry.NewRecorder(64)
	done := make(chan *RunReport, 1)
	go func() {
		done <- RunErr(3, RunConfig{
			Watchdog: 100 * time.Millisecond,
			Log:      telemetry.NewLogger(rec).Scope("mpi"),
			Hook: hookFunc(func(rank, seq int) HookAction {
				if rank == 2 && seq == 0 {
					return ActStall
				}
				return ActProceed
			}),
		}, func(c *Comm) error {
			c.AllReduce([]float64{1})
			return nil
		})
	}()
	var rep *RunReport
	select {
	case rep = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not break the injected deadlock")
	}
	if !rep.WatchdogFired {
		t.Fatalf("watchdog not reported; errs = %v", rep.Errs)
	}
	if got := rep.Culprits(); len(got) != 1 || got[0] != 2 {
		t.Errorf("culprits = %v, want the stalled rank [2]", got)
	}
	if rep.Errs[2] == nil || !strings.Contains(rep.Errs[2].Error(), "stalled") {
		t.Errorf("rank 2 error = %v", rep.Errs[2])
	}
	for _, r := range []int{0, 1} {
		if !errors.Is(rep.Errs[r], ErrWatchdog) {
			t.Errorf("rank %d error = %v, want ErrWatchdog", r, rep.Errs[r])
		}
	}
	// The dump names the stalled rank and the waiting peers.
	if !rep.States[2].Stalled || !strings.Contains(rep.States[2].Phase, "stalled") {
		t.Errorf("state dump for rank 2 = %+v", rep.States[2])
	}
	for _, r := range []int{0, 1} {
		if !rep.States[r].Waiting {
			t.Errorf("state dump for rank %d = %+v, want waiting", r, rep.States[r])
		}
	}
	var event string
	for _, ev := range rec.Events() {
		if ev.Kind == "watchdog" {
			event = ev.Text()
		}
	}
	for _, want := range []string{"rank0=AllReduce #0", "rank2=stalled before AllReduce #0 (injected)"} {
		if !strings.Contains(event, want) {
			t.Errorf("watchdog event %q lacks %q", event, want)
		}
	}
}

// A rank that returns while peers wait in a collective is a real
// deadlock (mismatched collective counts) — the watchdog diagnoses it.
func TestWatchdogMismatchedCollectives(t *testing.T) {
	rep := RunErr(3, RunConfig{Watchdog: 100 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // skips the AllReduce the others entered
		}
		c.AllReduce([]float64{1})
		return nil
	})
	if !rep.WatchdogFired {
		t.Fatalf("watchdog missed the mismatched collective; errs = %v", rep.Errs)
	}
	for _, r := range []int{1, 2} {
		if !errors.Is(rep.Errs[r], ErrWatchdog) {
			t.Errorf("rank %d error = %v, want ErrWatchdog", r, rep.Errs[r])
		}
	}
}

// Slow computation outside the runtime must never trip the watchdog,
// even when peers sit blocked in a collective the whole time.
func TestWatchdogNoFalsePositiveOnSlowRank(t *testing.T) {
	rep := RunErr(3, RunConfig{Watchdog: 50 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 2 {
			time.Sleep(400 * time.Millisecond) // "computing"
		}
		c.AllReduce([]float64{1})
		return nil
	})
	if rep.WatchdogFired {
		t.Fatalf("watchdog fired on a slow but live rank: %v", rep.Errs)
	}
	if !rep.OK() {
		t.Errorf("errs = %v", rep.Errs)
	}
}

// A budget trip releases the ranks blocked in an AllReduce: every
// released rank's error carries the budget's cause, and none of them is
// a culprit, so a recovery protocol does not mistake a cancellation for
// a dead rank.
func TestBudgetReleasesAllReduce(t *testing.T) {
	bud := budget.New()
	rec := telemetry.NewRecorder(64)
	rep := RunErr(3, RunConfig{Budget: bud, Log: telemetry.NewLogger(rec).Scope("mpi")}, func(c *Comm) error {
		if c.Rank() == 0 {
			bud.Cancel("test cancel")
			return nil // never joins: only the budget can release the others
		}
		c.AllReduce([]float64{1})
		return nil
	})
	for _, r := range []int{1, 2} {
		if !budget.Exhausted(rep.Errs[r]) {
			t.Errorf("rank %d error = %v, want the budget's cause", r, rep.Errs[r])
		}
	}
	if got := rep.Culprits(); len(got) != 0 {
		t.Errorf("culprits = %v, want none", got)
	}
	if !budget.Exhausted(rep.Err()) {
		t.Errorf("Err = %v, want the budget's cause", rep.Err())
	}
	found := false
	for _, ev := range rec.Events() {
		found = found || ev.Kind == "budget_release"
	}
	if !found {
		t.Error("budget release not logged")
	}
}
