package estimator

import (
	"errors"
	"math"
	"testing"
	"time"

	"rms/internal/faults"
	"rms/internal/nlopt"
	"rms/internal/sched"
)

// fitOpts matches TestEstimateRecoversRate's optimizer settings.
func fitOpts() nlopt.Options { return nlopt.Options{MaxIter: 60, RelStep: 1e-4} }

func TestRetryOptsTightenAndShrink(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{20})
	e, err := New(m, files, Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	o0 := e.retryOpts(files[0], 0)
	if o0.RTol != m.SolverOpts.RTol || o0.ATol != m.SolverOpts.ATol {
		t.Errorf("attempt 0 changed tolerances: %+v", o0)
	}
	if o0.MaxSteps != 500_000 {
		t.Errorf("attempt 0 step budget = %d", o0.MaxSteps)
	}
	o2 := e.retryOpts(files[0], 2)
	if want := m.SolverOpts.RTol * 0.01; math.Abs(o2.RTol-want) > want*1e-12 {
		t.Errorf("attempt 2 RTol = %g, want %g", o2.RTol, want)
	}
	if o2.InitialStep <= 0 || o2.InitialStep >= o0.InitialStep+1 {
		t.Errorf("attempt 2 InitialStep = %g", o2.InitialStep)
	}
	// A tighter model budget wins over the policy's.
	tight := *m
	tight.SolverOpts.MaxSteps = 1000
	e2, err := New(&tight, files, Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.retryOpts(files[0], 0).MaxSteps; got != 1000 {
		t.Errorf("model budget overridden: %d", got)
	}
}

// A transiently failing file recovers on retry: no penalty, one retry
// counted, and the residual matches the failure-free run closely (the
// retry runs at tightened tolerance, so agreement is near-exact).
func TestFlakySolveRecoversViaRetry(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.5, []int{40, 40})
	clean := func() []float64 {
		e, err := New(m, files, Config{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, e.ResidualDim())
		if err := e.Objective([]float64{1.0}, r); err != nil {
			t.Fatal(err)
		}
		return r
	}()
	e, err := New(m, files, Config{
		Ranks:  2,
		Faults: faults.NewPlan(1).FlakyFile(0, 0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.0}, r); err != nil {
		t.Fatal(err)
	}
	rec := e.Recovery()
	if rec.Retries != 1 || rec.PenalizedFiles != 0 {
		t.Errorf("recovery = %+v, want 1 retry, 0 penalized", rec)
	}
	for i := range r {
		if math.Abs(r[i]-clean[i]) > 1e-6 {
			t.Errorf("residual[%d] = %v, clean %v", i, r[i], clean[i])
		}
	}
}

// An unsalvageable file exhausts its attempts and writes NaN into its
// records instead of aborting the objective.
func TestPenaltyOnUnsalvageableFile(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.5, []int{30, 20})
	e, err := New(m, files, Config{
		Ranks:  2,
		Faults: faults.NewPlan(1).FailFile(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.5}, r); err != nil {
		t.Fatal(err)
	}
	rec := e.Recovery()
	if rec.PenalizedFiles != 1 || rec.Retries != 2 {
		t.Errorf("recovery = %+v, want 1 penalized after 2 retries", rec)
	}
	// File 1 has 20 records: those entries are NaN; the tail (file 0
	// only) stays small, near the true rate.
	for i := 0; i < 20; i++ {
		if !math.IsNaN(r[i]) {
			t.Errorf("residual[%d] = %v, want NaN", i, r[i])
		}
	}
	for i := 20; i < len(r); i++ {
		if math.Abs(r[i]) > 2e-3 {
			t.Errorf("residual[%d] = %v, want ≈ 0", i, r[i])
		}
	}
}

// An injected solver failure at a trial point yields NaN records, LM
// rejects the step, and the fit converges to the same optimum as the
// failure-free run.
func TestFitConvergesThroughTrialPointFailure(t *testing.T) {
	m := decayModel(t)
	kTrue := 1.2
	files := makeFiles(kTrue, []int{50, 30})
	fit := func(cfg Config) float64 {
		e, err := New(m, files, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Estimate([]float64{0.3}, []float64{0.01}, []float64{10},
			fitOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("fit did not converge (cfg %+v)", cfg)
		}
		return res.X[0]
	}
	kClean := fit(Config{Ranks: 2, Policy: sched.PolicyLPT})
	// Call 2 is the first LM trial step (call 0 = start, call 1 = the
	// one-parameter Jacobian column); failing every retry there rejects
	// the file mid-fit.
	plan := faults.NewPlan(1).FailFile(0, 2)
	e, err := New(m, files, Config{
		Ranks: 2, Policy: sched.PolicyLPT, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Estimate([]float64{0.3}, []float64{0.01}, []float64{10},
		fitOpts())
	if err != nil {
		t.Fatal(err)
	}
	rec := e.Recovery()
	if rec.PenalizedFiles < 1 {
		t.Errorf("recovery = %+v: the injected failure never rejected the file", rec)
	}
	if math.Abs(res.X[0]-kTrue) > 1e-3 {
		t.Errorf("faulted fit k = %v, want %v", res.X[0], kTrue)
	}
	if math.Abs(res.X[0]-kClean) > 1e-3 {
		t.Errorf("faulted fit k = %v, clean fit %v", res.X[0], kClean)
	}
}

// A rank crash mid-objective is recovered by
// reassigning its files to the survivors, and the fit completes with
// the correct parameters.
func TestRankCrashRecoveredMidFit(t *testing.T) {
	m := decayModel(t)
	kTrue := 1.2
	files := makeFiles(kTrue, []int{50, 30})
	// Each objective call costs every rank two collectives (the
	// contribution and work AllReduces), so cumulative collective 6 of
	// rank 1 lands in objective call 3 — mid-fit.
	plan := faults.NewPlan(1).CrashRank(1, 6)
	e, err := New(m, files, Config{
		Ranks: 2, Policy: sched.PolicyLPT, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Estimate([]float64{0.3}, []float64{0.01}, []float64{10},
		fitOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-kTrue) > 1e-3 {
		t.Errorf("fit through rank crash: k = %v, want %v", res.X[0], kTrue)
	}
	rec := e.Recovery()
	if rec.RankFailures != 1 || rec.RerunCalls != 1 {
		t.Errorf("recovery = %+v, want exactly one recovered rank failure", rec)
	}
	if c := plan.Counts(); c.Crashes != 1 {
		t.Errorf("plan counts = %+v", c)
	}
}

// A stalled rank becomes a watchdog trip, the survivors re-run the
// call, and the objective completes with the correct residual.
func TestWatchdogStallRecovered(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.5, []int{40, 40})
	clean := func() []float64 {
		e, err := New(m, files, Config{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, e.ResidualDim())
		if err := e.Objective([]float64{1.5}, r); err != nil {
			t.Fatal(err)
		}
		return r
	}()
	plan := faults.NewPlan(1).StallRank(1, 0)
	e, err := New(m, files, Config{
		Ranks: 2, Faults: plan, Watchdog: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.5}, r); err != nil {
		t.Fatal(err)
	}
	rec := e.Recovery()
	if rec.WatchdogTrips != 1 || rec.RankFailures != 1 || rec.RerunCalls != 1 {
		t.Errorf("recovery = %+v, want one watchdog trip recovered", rec)
	}
	for i := range r {
		if math.Abs(r[i]-clean[i]) > 1e-9 {
			t.Errorf("residual[%d] = %v, clean %v", i, r[i], clean[i])
		}
	}
}

// NaN escaping the model (here: the property function) is caught by the
// accumulation guard, retried, and then written into every record of the
// failed files: the residual the optimizer sees is NaN there, never a
// finite stand-in.
func TestNaNPropertyPenalized(t *testing.T) {
	m := decayModel(t)
	poisoned := *m
	poisoned.Property = func(y []float64) float64 {
		if y[1] > 0.5 {
			return math.NaN()
		}
		return y[1]
	}
	files := makeFiles(1.5, []int{30, 20})
	e, err := New(&poisoned, files, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.5}, r); err != nil {
		t.Fatal(err)
	}
	for i, v := range r {
		if !math.IsNaN(v) {
			t.Errorf("residual[%d] = %v, want NaN", i, v)
		}
	}
	rec := e.Recovery()
	if rec.PenalizedFiles != len(files) || rec.Retries != 2*len(files) {
		t.Errorf("recovery = %+v, want all %d files rejected after 2 retries each", rec, len(files))
	}
}

// A fit whose every solve fails cannot start: the start point's residual
// is NaN, so the optimizer returns nlopt.ErrNonFinite instead of
// reporting a fit converged at its start point.
func TestFitWithEverySolveFailingIsNonFinite(t *testing.T) {
	m := decayModel(t)
	m.Property = func([]float64) float64 { return math.NaN() }
	e, err := New(m, makeFiles(1.2, []int{20, 10}), Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Estimate([]float64{0.3}, []float64{0.01}, []float64{10}, fitOpts())
	if !errors.Is(err, nlopt.ErrNonFinite) {
		t.Fatalf("err = %v, want nlopt.ErrNonFinite", err)
	}
	if res != nil && res.Converged {
		t.Errorf("fit with every solve failing reported converged at %v", res.X)
	}
	if rec := e.Recovery(); rec.PenalizedFiles != 2 {
		t.Errorf("recovery = %+v, want both files rejected", rec)
	}
}
