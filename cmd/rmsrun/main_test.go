package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"rms/internal/checkpoint"
	"rms/internal/dataset"
	"rms/internal/service"
	"rms/internal/telemetry"
)

// synthData writes three small experiment files into a fresh temp dir.
func synthData(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	curve := func(tt float64) float64 { return 1 - 1/(1+tt) }
	for i := 0; i < 3; i++ {
		f := dataset.Synthesize(curve, dataset.SynthesizeOptions{
			Name:    fmt.Sprintf("exp%02d.dat", i+1),
			Records: 40 + 15*i,
			T0:      0, T1: 1,
			Seed: int64(i),
		})
		if err := f.WriteFile(filepath.Join(dir, f.Name)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// loadRun reads the run checkpoint at path.
func loadRun(t *testing.T, path string) service.RunState {
	t.Helper()
	var st service.RunState
	if err := checkpoint.Load(path, service.RunKind, &st); err != nil {
		t.Fatalf("load run checkpoint: %v", err)
	}
	return st
}

// baseOpts is the small, fast configuration the tests run.
func baseOpts(dataDir string) runOpts {
	return runOpts{
		variants: 9, dataDir: dataDir, ranks: 2, lb: true, maxIter: 3, free: 1,
	}
}

func TestRunEstimation(t *testing.T) {
	// A short run must complete without error; recovery quality is covered
	// by the estimator and integration tests.
	if err := run(baseOpts(synthData(t))); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingData(t *testing.T) {
	o := baseOpts(t.TempDir())
	o.ranks, o.lb, o.maxIter = 1, false, 1
	if err := run(o); err == nil {
		t.Error("empty data dir accepted")
	}
}

func TestRunResumeNeedsCheckpoint(t *testing.T) {
	o := baseOpts(synthData(t))
	o.resume = true
	if err := run(o); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
}

// TestRunCheckpointResume is the end-to-end resume check: a fit
// interrupted by maxIter, resumed from its checkpoint file, must march
// on from the recorded iteration rather than starting over.
func TestRunCheckpointResume(t *testing.T) {
	dir := synthData(t)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")

	o := baseOpts(dir)
	o.maxIter = 2
	o.checkpointPath = ckpt
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	st := loadRun(t, ckpt)
	if st.Opt.Iter == 0 || st.Est.Calls == 0 {
		t.Fatalf("checkpoint is empty: iter=%d calls=%d", st.Opt.Iter, st.Est.Calls)
	}

	o.maxIter = 4
	o.resume = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	st2 := loadRun(t, ckpt)
	// The resumed fit may converge on its first iteration (Iter stays
	// put), but its objective-call counter must continue from the
	// restored state — a restart from scratch would reset it.
	if st2.Opt.Iter < st.Opt.Iter || st2.Est.Calls <= st.Est.Calls {
		t.Errorf("resume did not continue: iter %d→%d, calls %d→%d",
			st.Opt.Iter, st2.Opt.Iter, st.Est.Calls, st2.Est.Calls)
	}
}

// TestRunInterruptLeavesResumableCheckpoint delivers a synthetic SIGINT
// through the injectable interrupt channel: the run must stop reporting
// a budget cancellation (not a crash), and a -resume run from a later
// checkpoint must then finish the fit.
func TestRunInterruptLeavesResumableCheckpoint(t *testing.T) {
	dir := synthData(t)
	ckpt := filepath.Join(t.TempDir(), "fit.ckpt")

	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt // queued: cancels the budget before the fit starts
	o := baseOpts(dir)
	o.maxIter = 5
	o.checkpointPath = ckpt
	o.interrupt = sig
	if err := run(o); err != nil {
		t.Fatalf("interrupted run must exit cleanly, got %v", err)
	}
	// The queued signal cancels the budget before the first objective
	// call, so no iteration boundary is reached and no file is written.
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a run interrupted before its first call left a checkpoint (stat: %v)", err)
	}

	// Let one iteration land a checkpoint, interrupt later, then resume.
	o.interrupt = nil
	o.maxIter = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	before := loadRun(t, ckpt)
	o.resume = true
	o.maxIter = 4
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	st := loadRun(t, ckpt)
	if st.Opt.Iter < before.Opt.Iter || st.Est.Calls <= before.Est.Calls {
		t.Errorf("resume after interrupt did not continue: iter %d→%d, calls %d→%d",
			before.Opt.Iter, st.Opt.Iter, before.Est.Calls, st.Est.Calls)
	}
}

// TestRunDeadlineStopsEarly bounds the whole fit with a deadline so
// tight the first objective call cannot finish: the run must stop
// cleanly via the budget, not hang or crash.
func TestRunDeadlineStopsEarly(t *testing.T) {
	o := baseOpts(synthData(t))
	o.maxIter = 50
	o.deadline = time.Millisecond
	if err := run(o); err != nil {
		t.Fatalf("deadline run must exit cleanly, got %v", err)
	}
}

// traceEvent mirrors the Chrome trace-event fields the test inspects.
type traceEvent struct {
	Ph   string  `json:"ph"`
	Name string  `json:"name"`
	TID  int64   `json:"tid"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// TestRunTrace is the acceptance check for the -trace flag: the run must
// produce well-formed Chrome trace JSON with one lane per simulated MPI
// rank, and the named spans on the main lane must attribute at least 95%
// of the traced wall time.
func TestRunTrace(t *testing.T) {
	dir := synthData(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	o := baseOpts(dir)
	o.obs = telemetry.CLI{TracePath: tracePath, Metrics: true}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Lane inventory from the thread_name metadata events.
	lanes := map[string]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes[ev.Args.Name] = ev.TID
		}
	}
	for _, want := range []string{"main", "estimator", "rank 0", "rank 1"} {
		if _, ok := lanes[want]; !ok {
			t.Errorf("trace lacks lane %q (lanes: %v)", want, lanes)
		}
	}

	// Coverage: union of main-lane spans over the full traced window.
	mainTID := lanes["main"]
	type iv struct{ s, e float64 }
	var spans []iv
	var last float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if end := ev.TS + ev.Dur; end > last {
			last = end
		}
		if ev.TID == mainTID {
			spans = append(spans, iv{ev.TS, ev.TS + ev.Dur})
		}
	}
	if len(spans) == 0 || last <= 0 {
		t.Fatal("no complete events on the main lane")
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
	var covered, hi float64
	hi = -1
	for _, s := range spans {
		if s.s > hi {
			covered += s.e - s.s
			hi = s.e
		} else if s.e > hi {
			covered += s.e - hi
			hi = s.e
		}
	}
	if cov := covered / last; cov < 0.95 {
		t.Errorf("main-lane spans attribute %.1f%% of traced wall time, want >= 95%%", 100*cov)
	}
}
