package faults

import (
	"encoding/json"
	"errors"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := NewPlan(99).
		CrashRank(1, 4).StallRank(2, 3).
		FailFile(5, 6).FlakyFile(7, 8, 2).
		FlakyFile(1, 2, 1).
		FailRate(0.1)

	// Fire part of the schedule so the snapshot holds real progress.
	p.AtCollective(1, 0) // seen[1] = 1
	if err := p.FileSolve(2, 0, 1, 0); !errors.Is(err, ErrInjected) {
		t.Fatal("flaky file did not fire")
	}

	st := p.Snapshot()
	q := FromState(st)

	// The restored plan continues exactly where the original left off:
	// consumed one-shots stay consumed, pending ones still fire.
	if err := q.FileSolve(2, 0, 1, 1); err != nil {
		t.Fatalf("flaky retry after restore: %v", err)
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

	// Rate-based failure decisions must agree across the restore.
	for call := 10; call < 40; call++ {
		a, b := p.FileSolve(call, 0, 9, 0), p2.FileSolve(call, 0, 9, 0)
		if (a == nil) != (b == nil) {
			t.Fatalf("rate-based failure diverged at call %d: %v vs %v", call, a, b)
		}
	}
}
