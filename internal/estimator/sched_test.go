package estimator

import (
	"math"
	"reflect"
	"testing"

	"rms/internal/sched"
	"rms/internal/telemetry"
)

// schedCfgFull exercises everything at once: EWMA re-planning, dominant
// splitting, two stealing lanes.
func schedCfgFull() *sched.Config {
	return &sched.Config{
		Alpha: 0.5, SplitShare: 0.25, MaxParts: 3,
		Lanes: 2, Steal: true,
	}
}

// TestSchedObjectiveBitIdenticalToSerial is the core numerical claim:
// the v2 scheduler path — re-planned, split, stolen — produces residuals
// bit-identical to the serial single-rank plain path, call after call.
func TestSchedObjectiveBitIdenticalToSerial(t *testing.T) {
	m := decayModel(t)
	// Skewed record counts: one dominant file that splitting will carve up.
	counts := []int{60, 6, 9, 5, 7, 8}
	serial, err := New(m, makeFiles(1.2, counts), Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := New(m, makeFiles(1.2, counts), Config{Ranks: 3, Sched: schedCfgFull()})
	if err != nil {
		t.Fatal(err)
	}
	// Several calls so the second and later run on measured, re-planned,
	// split schedules — the interesting ones.
	for call, k := range []float64{1.2, 1.5, 0.9, 1.2} {
		rs := make([]float64, serial.ResidualDim())
		rd := make([]float64, dyn.ResidualDim())
		if err := serial.Objective([]float64{k}, rs); err != nil {
			t.Fatal(err)
		}
		if err := dyn.Objective([]float64{k}, rd); err != nil {
			t.Fatal(err)
		}
		for j := range rs {
			if rs[j] != rd[j] {
				t.Fatalf("call %d: residual[%d] differs: serial %v sched %v",
					call, j, rs[j], rd[j])
			}
		}
	}
	// The schedule must have actually split the dominant file.
	if dyn.SchedStats().Splits == 0 {
		t.Fatal("dominant file never split")
	}
	if dyn.SchedStats().Replans == 0 {
		t.Fatal("EWMA policy never re-planned")
	}
}

// TestSchedPolicyLPTMatchesV1 holds the lpt policy to the paper's
// dynamic load balancer: after every call the next plan is exactly
// sched.LPT over the measured per-file costs (FileTimes), as whole-file
// items, and the residuals stay bit-identical to the serial path.
func TestSchedPolicyLPTMatchesV1(t *testing.T) {
	m := decayModel(t)
	counts := []int{25, 10, 40, 5, 15}
	serial, err := New(m, makeFiles(1.1, counts), Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := New(m, makeFiles(1.1, counts), Config{
		Ranks: 3,
		Sched: &sched.Config{Policy: sched.PolicyLPT},
	})
	if err != nil {
		t.Fatal(err)
	}
	for call, k := range []float64{1.1, 1.4, 0.8} {
		rs := make([]float64, serial.ResidualDim())
		rl := make([]float64, lpt.ResidualDim())
		if err := serial.Objective([]float64{k}, rs); err != nil {
			t.Fatal(err)
		}
		if err := lpt.Objective([]float64{k}, rl); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rl, rs) {
			t.Fatalf("call %d: lpt residuals diverged from serial", call)
		}
		want := sched.LPT(lpt.FileTimes(), 3)
		got := make([][]int, 0, len(want))
		for _, plan := range lpt.Plans() {
			var fis []int
			for _, it := range plan {
				if it.IsSplit(counts[it.File]) {
					t.Fatalf("call %d: PolicyLPT produced a split item %+v", call, it)
				}
				fis = append(fis, it.File)
			}
			got = append(got, fis)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: plans %v, LPT over measured costs %v", call, got, want)
		}
	}
}

// TestSchedFTRetryCostSeparation is the satellite fix: a file whose
// first attempt does real solver work but fails (non-finite residual)
// and succeeds on retry must feed only the successful attempt's cost to
// the EWMA (prediction < total measured work), and the failed attempt
// must land in the file_retry_ns histogram rather than file_solve_ns.
func TestSchedFTRetryCostSeparation(t *testing.T) {
	m := decayModel(t)
	// Poison the very first property evaluation: attempt 0 of file 0
	// integrates the whole file (full solver cost) but produces one NaN
	// residual entry, which the FT guard turns into a retryable failure.
	base := m.Property
	poisoned := false
	m.Property = func(y []float64) float64 {
		if !poisoned {
			poisoned = true
			return math.NaN()
		}
		return base(y)
	}
	counts := []int{20, 20}
	reg := telemetry.NewRegistry()
	e, err := New(m, makeFiles(1.0, counts), Config{
		Ranks:         1, // single rank: the poisoned closure is not thread-safe
		FaultTolerant: true,
		Sched:         &sched.Config{Alpha: 0.5},
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.0}, r); err != nil {
		t.Fatal(err)
	}
	if got := e.Recovery().Retries; got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	total := e.FileTimes()[0]      // includes the failed attempt's work
	pred := e.CostPredictions()[0] // successful attempt only
	if !(pred > 0 && pred < total) {
		t.Fatalf("EWMA fed %v, total measured %v — retry cost leaked into the model", pred, total)
	}
	// The clean file's prediction equals its total (nothing was retried).
	if e.CostPredictions()[1] != e.FileTimes()[1] {
		t.Fatalf("clean file: prediction %v != measured %v",
			e.CostPredictions()[1], e.FileTimes()[1])
	}
	retryH := reg.Histogram("estimator.file_retry_ns", nil)
	solveH := reg.Histogram("estimator.file_solve_ns", nil)
	if retryH.Count() != 1 {
		t.Fatalf("file_retry_ns count = %d, want 1", retryH.Count())
	}
	if solveH.Count() != 2 { // two files' successful solves
		t.Fatalf("file_solve_ns count = %d, want 2", solveH.Count())
	}
}

// TestSchedPreludeRunsFollowPlan: every lane of every rank primes its
// tape evaluator for the call's k, so tape.prelude_runs counts ranks ×
// lanes per call however few items there are and whichever lane ends
// up running them. One file over two ranks of two lanes leaves three
// lanes without work on every call.
func TestSchedPreludeRunsFollowPlan(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(decayModel(t), makeFiles(1.0, []int{20}), Config{
		Ranks:   2,
		Sched:   &sched.Config{Lanes: 2, Steal: true},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	const calls = 3
	for c := 0; c < calls; c++ {
		if err := e.Objective([]float64{1.0 + 0.1*float64(c)}, r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := reg.Counter("tape.prelude_runs").Value(), int64(calls*2*2); got != want {
		t.Errorf("tape.prelude_runs = %d, want %d (calls × ranks × lanes)", got, want)
	}
}

// TestSchedEstimateRecoversRate runs a full fit through the v2 path —
// the optimizer must converge to the true rate exactly as on v1.
func TestSchedEstimateRecoversRate(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.5, []int{50, 8, 12, 6})
	e, err := New(m, files, Config{Ranks: 2, Sched: schedCfgFull()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Estimate([]float64{0.5}, []float64{0.01}, []float64{10}, fitOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fit did not converge")
	}
	if got := res.X[0]; got < 1.45 || got > 1.55 {
		t.Fatalf("fitted rate %v, want ~1.5", got)
	}
}
