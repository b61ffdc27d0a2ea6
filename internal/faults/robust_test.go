package faults

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

func TestHangAndTimeoutSchedules(t *testing.T) {
	p := NewPlan(1).HangFile(3, 2).TimeoutFile(5, 2)
	if err := p.FileSolve(2, 0, 3, 0); !errors.Is(err, ErrInjectedHang) {
		t.Fatalf("attempt 0 of hang file: %v", err)
	}
	if err := p.FileSolve(2, 0, 3, 1); err != nil {
		t.Fatalf("retry of hang file must proceed: %v", err)
	}
	if err := p.FileSolve(2, 0, 5, 0); !errors.Is(err, ErrInjectedTimeout) {
		t.Fatalf("attempt 0 of timeout file: %v", err)
	}
	if err := p.FileSolve(1, 0, 3, 0); err != nil {
		t.Fatalf("other calls must be clean: %v", err)
	}
	c := p.Counts()
	if c.Hangs != 1 || c.Timeouts != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

// Per-lane streams must make slowdown decisions independent of the order
// in which lanes (goroutines) reach the injection point.
func TestLaneSlowdownScheduleIndependent(t *testing.T) {
	draw := func(order []int) map[int]float64 {
		p := NewPlan(42).SlowLaneJitter(0.5, 4)
		out := make(map[int]float64)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, lane := range order {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for call := 0; call < 8; call++ {
					f := p.LaneSlowdown(call, 0, l)
					mu.Lock()
					out[l*100+call] = f
					mu.Unlock()
				}
			}(lane)
		}
		wg.Wait()
		return out
	}
	a := draw([]int{0, 1, 2, 3})
	b := draw([]int{3, 2, 1, 0})
	if len(a) != len(b) {
		t.Fatalf("draw counts differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("lane %d call %d: %g vs %g under different interleavings", k/100, k%100, v, b[k])
		}
	}
	// Distinct lanes must see distinct streams.
	if a[0*100+0] == a[1*100+0] && a[0*100+1] == a[1*100+1] && a[0*100+2] == a[1*100+2] {
		t.Fatal("lanes 0 and 1 drew identical streams")
	}
}

func TestPersistentSlowLaneStacks(t *testing.T) {
	p := NewPlan(7).SlowLane(1, 2, 3.5)
	if f := p.LaneSlowdown(0, 1, 2); f != 3.5 {
		t.Fatalf("factor = %g, want 3.5", f)
	}
	if f := p.LaneSlowdown(0, 0, 0); f != 1 {
		t.Fatalf("unscheduled lane slowed: %g", f)
	}
	if p.Counts().SlowLanes == 0 {
		t.Fatal("slow-lane injection not counted")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := NewPlan(99).
		CrashRank(1, 4).StallRank(2, 3).
		FailFile(5, 6).FlakyFile(7, 8, 2).
		HangFile(1, 2).TimeoutFile(3, 4).
		SlowLane(0, 1, 2.5).
		FailRate(0.1).SlowLaneJitter(0.2, 3)

	// Fire part of the schedule so the snapshot holds real progress.
	p.AtCollective(1, 0) // seen[1] = 1
	if err := p.FileSolve(2, 0, 1, 0); !errors.Is(err, ErrInjectedHang) {
		t.Fatal("hang did not fire")
	}

	st := p.Snapshot()
	q := FromState(st)

	// The restored plan continues exactly where the original left off:
	// consumed one-shots stay consumed, pending ones still fire.
	if err := q.FileSolve(2, 0, 1, 1); err != nil {
		t.Fatalf("hang retry after restore: %v", err)
	}
	if err := q.FileSolve(6, 0, 5, 3); !errors.Is(err, ErrInjected) {
		t.Fatal("pending FailFile lost in restore")
	}
	// seen[1] resumed at 1: the original and a restored copy must agree on
	// exactly which upcoming collective fires the scheduled crash.
	p2 := FromState(p.Snapshot())
	for n := 2; n < 6; n++ {
		a, b := p.AtCollective(1, 0), p2.AtCollective(1, 0)
		if a != b {
			t.Fatalf("collective %d: original %v vs restored %v", n, a, b)
		}
	}
	if p.Counts().Crashes != p2.Counts().Crashes {
		t.Fatal("crash counts diverged after restore")
	}

	// Snapshot encoding is canonical: two snapshots of equal state encode
	// byte-identically (the content-hash requirement).
	b1, _ := json.Marshal(p.Snapshot())
	b2, _ := json.Marshal(FromState(p.Snapshot()).Snapshot())
	if string(b1) != string(b2) {
		t.Fatalf("snapshot encoding not canonical:\n%s\n%s", b1, b2)
	}

	// Jittered slow-lane decisions must agree across the restore.
	for call := 0; call < 6; call++ {
		if p.LaneSlowdown(call, 0, 3) != p2.LaneSlowdown(call, 0, 3) {
			t.Fatalf("slow-lane draw diverged at call %d", call)
		}
	}
}
