package estimator

import (
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"rms/internal/budget"
	"rms/internal/sched"
	"rms/internal/telemetry"
)

func TestObjectiveBudgetCancelledBeforeCall(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{20, 20})
	bud := budget.New()
	e, err := New(m, files, Config{Ranks: 2, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	bud.Cancel("user abort")
	r := make([]float64, e.ResidualDim())
	r[0] = 42 // sentinel: a cancelled call must not touch the residual
	if err := e.Objective([]float64{1.0}, r); !budget.Exhausted(err) {
		t.Fatalf("want budget error, got %v", err)
	}
	if r[0] != 42 {
		t.Error("cancelled Objective wrote into the residual")
	}
	if e.Calls() != 0 {
		t.Errorf("cancelled call counted: Calls = %d", e.Calls())
	}
}

func TestObjectiveBudgetCancelMidCall(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{30, 30, 30, 30})
	bud := budget.New()
	// Trip the budget from inside the call: the property function runs
	// once per emitted record, so cancel after a handful of them. Both
	// ranks call it, so the count is atomic.
	var n atomic.Int64
	inner := m.Property
	m.Property = func(y []float64) float64 {
		if n.Add(1) == 5 {
			bud.Cancel("mid-call")
		}
		return inner(y)
	}
	e, err := New(m, files, Config{Ranks: 2, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.0}, r); !budget.Exhausted(err) {
		t.Fatalf("want budget error, got %v", err)
	}
	if e.Calls() != 0 {
		t.Errorf("aborted call counted: Calls = %d", e.Calls())
	}
}

// A run-level cancellation that lands inside a file solve must not burn
// retries or reject the file.
func TestBudgetCancelNotRetriedUnderFT(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{30, 30})
	bud := budget.New()
	n := 0
	inner := m.Property
	m.Property = func(y []float64) float64 {
		n++
		if n == 3 {
			bud.Cancel("mid-call")
		}
		return inner(y)
	}
	e, err := New(m, files, Config{Ranks: 1, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.0}, r); !budget.Exhausted(err) {
		t.Fatalf("want budget error, got %v", err)
	}
	rec := e.Recovery()
	if rec.Retries != 0 || rec.PenalizedFiles != 0 {
		t.Errorf("cancellation entered the retry path: %+v", rec)
	}
}

// resumeResiduals runs `calls` objective evaluations and returns each
// call's residual vector. k varies with the estimator's own call
// counter, so a resumed estimator continues the same k sequence the
// uninterrupted run would have seen.
func resumeResiduals(t *testing.T, e *Estimator, calls int) [][]float64 {
	t.Helper()
	out := make([][]float64, calls)
	for i := 0; i < calls; i++ {
		r := make([]float64, e.ResidualDim())
		if err := e.Objective([]float64{1.0 + 0.1*float64(e.Calls())}, r); err != nil {
			t.Fatal(err)
		}
		out[i] = append([]float64(nil), r...)
	}
	return out
}

func TestSnapshotResumeBitIdenticalV1(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{30, 20, 25})
	mk := func() *Estimator {
		e, err := New(m, files, Config{Ranks: 2, Policy: sched.PolicyLPT})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := mk()
	refRes := resumeResiduals(t, ref, 4)

	// Interrupt after 2 calls, snapshot, resume in a fresh estimator.
	a := mk()
	resumeResiduals(t, a, 2)
	snap := a.Snapshot()

	b := mk()
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotRes := resumeResiduals(t, b, 2)
	for c := 0; c < 2; c++ {
		for i := range refRes[2+c] {
			if gotRes[c][i] != refRes[2+c][i] {
				t.Fatalf("resumed call %d residual[%d]: %v != %v", 2+c, i, gotRes[c][i], refRes[2+c][i])
			}
		}
	}
	if b.Calls() != 4 {
		t.Errorf("resumed Calls = %d, want 4", b.Calls())
	}
}

// TestSnapshotResumeBitIdenticalSched resumes an lpt fit over four
// files: besides the residuals, the re-planned plans, the measured costs
// and the modeled time must come through the snapshot exactly.
func TestSnapshotResumeBitIdenticalSched(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{30, 20, 25, 35})
	mk := func() *Estimator {
		e, err := New(m, files, Config{Ranks: 2, Policy: sched.PolicyLPT})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := mk()
	refRes := resumeResiduals(t, ref, 4)

	a := mk()
	resumeResiduals(t, a, 2)
	snap := a.Snapshot()

	b := mk()
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotRes := resumeResiduals(t, b, 2)
	for c := 0; c < 2; c++ {
		for i := range refRes[2+c] {
			if gotRes[c][i] != refRes[2+c][i] {
				t.Fatalf("resumed lpt call %d residual[%d]: %v != %v", 2+c, i, gotRes[c][i], refRes[2+c][i])
			}
		}
	}
	if !reflect.DeepEqual(b.Plans(), ref.Plans()) || !reflect.DeepEqual(b.FileTimes(), ref.FileTimes()) {
		t.Errorf("resumed plans %v / costs %v, uninterrupted %v / %v",
			b.Plans(), b.FileTimes(), ref.Plans(), ref.FileTimes())
	}
	if b.ModeledOps() != ref.ModeledOps() || b.SchedStats() != ref.SchedStats() {
		t.Errorf("resumed modeled ops %v, replans %d; uninterrupted %v, %d",
			b.ModeledOps(), b.SchedStats().Replans, ref.ModeledOps(), ref.SchedStats().Replans)
	}
}

func TestRestoreRejectsIncompatibleSnapshot(t *testing.T) {
	m := decayModel(t)
	e2, err := New(m, makeFiles(1.0, []int{20, 20}), Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	e3, err := New(m, makeFiles(1.0, []int{20, 20, 20}), Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(e3.Snapshot()); err == nil {
		t.Error("snapshot with a different file count was accepted")
	}
	bad := e2.Snapshot()
	bad.Plans[0][0].File = 99
	if err := e2.Restore(bad); err == nil {
		t.Error("snapshot planning an unknown file was accepted")
	}
	wide, err := New(m, makeFiles(1.0, []int{20, 20}), Config{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Restore(e2.Snapshot()); err == nil {
		t.Error("2-rank snapshot restored into a 3-rank estimator")
	}

	// Three files on two ranks: the block plan is [[0 1] [2]]. A plan
	// that drops a file would silently lose its residual, and one that
	// repeats a file would count it twice; both are refused, naming the
	// file.
	e, err := New(m, makeFiles(1.0, []int{20, 20, 20}), Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	dropped := e.Snapshot()
	dropped.Plans[1] = nil
	repeated := e.Snapshot()
	repeated.Plans[1] = append(repeated.Plans[1], repeated.Plans[0][0])
	for _, c := range []struct {
		name, file string
		st         State
	}{{"dropped", "expC", dropped}, {"repeated", "expA", repeated}} {
		err := e.Restore(c.st)
		if err == nil || !strings.Contains(err.Error(), c.file) {
			t.Errorf("%s file: Restore error %v, want one naming %s", c.name, err, c.file)
		}
	}
	if !reflect.DeepEqual(e.Snapshot(), want) {
		t.Error("a rejected snapshot changed the estimator")
	}
}

// The budget-overhead acceptance bar: threading budget checks through
// the hot paths must cost under 1% of the work. Checked structurally
// here — the check count is bounded by the solver's natural loop
// iterations (steps plus Newton iterations), and each check takes no
// lock — one atomic add and one atomic load per budget in the parent
// chain (a few ns) — against an iteration's ≫100ns of factorization and
// function-evaluation work, so a small constant per iteration keeps the
// overhead orders of magnitude under 1%.
func TestBudgetCheckOverheadTiny(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{40, 40})
	bud := budget.New()
	reg := telemetry.NewRegistry()
	e, err := New(m, files, Config{Ranks: 2, Budget: bud, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.0}, r); err != nil {
		t.Fatal(err)
	}
	checks := bud.Checks()
	if checks == 0 {
		t.Fatal("no budget checks recorded — the wiring is dead")
	}
	iters := reg.Counter("ode.steps").Value() +
		reg.Counter("ode.rejected_steps").Value() +
		reg.Counter("ode.newton_iters").Value()
	if iters == 0 {
		t.Fatal("no solver iterations recorded")
	}
	// Allow two checks per solver iteration plus a small per-call slack
	// for the estimator-level checks (entry, per-file, post-loop).
	if limit := 2*iters + 64; checks > limit {
		t.Errorf("budget checks = %d for %d solver iterations (limit %d)", checks, iters, limit)
	}
	if math.IsNaN(e.ModeledOps()) {
		t.Error("no modeled ops")
	}
}
