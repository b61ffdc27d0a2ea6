package estimator

import (
	"math"
	"reflect"
	"testing"

	"rms/internal/sched"
	"rms/internal/telemetry"
)

// TestSchedObjectiveBitIdenticalToSerial is the core numerical claim:
// the lpt path — re-planned every call from measured costs — produces
// residuals bit-identical to the serial single-rank path, call after
// call.
func TestSchedObjectiveBitIdenticalToSerial(t *testing.T) {
	m := decayModel(t)
	// Skewed record counts: one dominant file the re-plan isolates.
	counts := []int{60, 6, 9, 5, 7, 8}
	serial, err := New(m, makeFiles(1.2, counts), Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := New(m, makeFiles(1.2, counts), Config{Ranks: 3, Policy: sched.PolicyLPT})
	if err != nil {
		t.Fatal(err)
	}
	// Several calls so the second and later run on measured, re-planned
	// schedules — the interesting ones.
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
				t.Fatalf("call %d: residual[%d] differs: serial %v lpt %v",
					call, j, rs[j], rd[j])
			}
		}
	}
	if got := dyn.SchedStats().Replans; got != 4 {
		t.Fatalf("lpt re-planned %d times in 4 calls", got)
	}
}

// TestSchedPolicyLPTMatchesV1 holds the lpt policy to the paper's
// dynamic load balancer: after every call the next plan is exactly
// sched.LPT over the measured per-file costs (FileTimes), and the
// residuals stay bit-identical to the serial path.
func TestSchedPolicyLPTMatchesV1(t *testing.T) {
	m := decayModel(t)
	counts := []int{25, 10, 40, 5, 15}
	serial, err := New(m, makeFiles(1.1, counts), Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := New(m, makeFiles(1.1, counts), Config{Ranks: 3, Policy: sched.PolicyLPT})
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
		if got, want := lpt.Plans(), sched.LPT(lpt.FileTimes(), 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: plans %v, LPT over measured costs %v", call, got, want)
		}
	}
}

// TestSchedFTRetryCostSeparation: a file whose first attempt does real
// solver work but fails (non-finite residual) and succeeds on retry is
// measured at the work of both attempts, while the failed attempt lands
// in the file_retry_ops histogram rather than file_solve_ops.
func TestSchedFTRetryCostSeparation(t *testing.T) {
	m := decayModel(t)
	// Poison the very first property evaluation: attempt 0 of file 0
	// integrates the whole file (full solver cost) but produces one NaN
	// residual entry, which the non-finite guard turns into a retryable
	// failure.
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
		Ranks:   1, // single rank: the poisoned closure is not thread-safe
		Policy:  sched.PolicyLPT,
		Metrics: reg,
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
	// The retried file pays for both attempts; the clean file for one.
	if times := e.FileTimes(); !(times[0] > times[1]) {
		t.Fatalf("retried file measured %v, clean file %v — the failed attempt's work is missing", times[0], times[1])
	}
	retryH := reg.Histogram("estimator.file_retry_ops", nil)
	solveH := reg.Histogram("estimator.file_solve_ops", nil)
	if retryH.Count() != 1 {
		t.Fatalf("file_retry_ops count = %d, want 1", retryH.Count())
	}
	if solveH.Count() != 2 { // two files' successful solves
		t.Fatalf("file_solve_ops count = %d, want 2", solveH.Count())
	}
}

// TestSchedPreludeRunsFollowPlan: each rank evaluates its plan with one
// tape evaluator, which runs the prelude once per call at the first
// evaluation, so tape.prelude_runs counts the ranks that solve a file.
// One file over two ranks leaves one rank idle on every call.
func TestSchedPreludeRunsFollowPlan(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(decayModel(t), makeFiles(1.0, []int{20}), Config{
		Ranks:   2,
		Policy:  sched.PolicyLPT,
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
	if got, want := reg.Counter("tape.prelude_runs").Value(), int64(calls); got != want {
		t.Errorf("tape.prelude_runs = %d, want %d (one solving rank per call)", got, want)
	}
}

// TestSchedEstimateRecoversRate runs a full fit on skewed files through
// the lpt path — the optimizer must converge to the true rate.
func TestSchedEstimateRecoversRate(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.5, []int{50, 8, 12, 6})
	e, err := New(m, files, Config{Ranks: 2, Policy: sched.PolicyLPT})
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
