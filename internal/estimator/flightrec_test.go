package estimator

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rms/internal/faults"
	"rms/internal/telemetry"
)

// warnTimeline runs one fault-injected objective call on a fresh
// estimator + recorder and returns the Warn-and-above event texts — the
// deterministic projection of the flight recorder (timestamps and
// debug/info chatter excluded).
func warnTimeline(t *testing.T) []string {
	t.Helper()
	m := decayModel(t)
	files := makeFiles(1.5, []int{30, 20})
	rec := telemetry.NewRecorder(256)
	log := telemetry.NewLogger(rec)
	// Keyed faults on a single rank: the injection order is the serial
	// file order, so the recorded timeline is exactly reproducible.
	plan := faults.NewPlan(7).FlakyFile(0, 0, 1).FailFile(1, 0).
		WithLogger(log.Scope("faults"))
	e, err := New(m, files, Config{Ranks: 1, Faults: plan, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.5}, r); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range rec.Events() {
		if ev.Level >= telemetry.LevelWarn {
			out = append(out, ev.Text())
		}
	}
	return out
}

// TestFlightRecorderGoldenTimeline pins the post-mortem timeline of a
// deterministic injected-fault run: same seed, same schedule, same
// events in the same order — byte for byte.
func TestFlightRecorderGoldenTimeline(t *testing.T) {
	golden := []string{
		"warn  faults.inject: injected solve failure call=0 rank=0 file=0 attempt=0",
		"warn  faults.inject: injected solve failure call=0 rank=0 file=1 attempt=0",
		"warn  faults.inject: injected solve failure call=0 rank=0 file=1 attempt=1",
		"warn  faults.inject: injected solve failure call=0 rank=0 file=1 attempt=2",
		"warn  estimator.penalize: file penalized: attempts exhausted or unretryable " +
			"call=0 rank=0 file=1 attempts=3 " +
			"err=faults: injected solver failure: ode: step size underflow",
	}
	got := warnTimeline(t)
	if len(got) != len(golden) {
		t.Fatalf("timeline has %d events, want %d:\n%s",
			len(got), len(golden), strings.Join(got, "\n"))
	}
	for i := range golden {
		if got[i] != golden[i] {
			t.Errorf("event %d:\n got %q\nwant %q", i, got[i], golden[i])
		}
	}
	// And the whole run is reproducible: a second identical run records
	// the identical timeline.
	again := warnTimeline(t)
	if strings.Join(got, "\n") != strings.Join(again, "\n") {
		t.Errorf("two identical seeded runs diverged:\n%s\nvs\n%s",
			strings.Join(got, "\n"), strings.Join(again, "\n"))
	}
}

// TestWatchdogAbortDumpsFlightRecorder arms the auto-dump and stalls a
// rank: the mpi watchdog's error-level event must trigger exactly one
// post-mortem dump containing the recent history and, in the watchdog
// event itself, the per-rank state dump naming the stalled rank's phase.
func TestWatchdogAbortDumpsFlightRecorder(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.5, []int{40, 40})
	rec := telemetry.NewRecorder(256)
	var dump bytes.Buffer
	rec.ArmAutoDump(&dump)
	log := telemetry.NewLogger(rec)
	plan := faults.NewPlan(1).StallRank(1, 0).WithLogger(log.Scope("faults"))
	e, err := New(m, files, Config{
		Ranks: 2, Faults: plan, Watchdog: 150 * time.Millisecond, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.5}, r); err != nil {
		t.Fatal(err)
	}
	out := dump.String()
	if !strings.Contains(out, "post-mortem dump (trigger: error mpi.watchdog:") {
		t.Fatalf("watchdog abort did not trigger the post-mortem dump:\n%s", out)
	}
	if !strings.Contains(out, "injected rank stall") {
		t.Fatalf("dump missing the injection history:\n%s", out)
	}
	if !strings.Contains(out, "rank1=stalled before AllReduce #0 (injected)") {
		t.Fatalf("dump missing the stalled rank's phase:\n%s", out)
	}
	if strings.Count(out, "post-mortem dump") != 1 {
		t.Fatalf("dump fired more than once:\n%s", out)
	}
	// The recovery itself was recorded after the dump trigger.
	found := false
	for _, ev := range rec.Events() {
		if ev.Scope == "estimator" && ev.Kind == "recovery" {
			found = true
		}
	}
	if !found {
		t.Error("rank recovery not recorded in the flight recorder")
	}
}
