package conformance

import (
	"math"
	"math/rand"
	"testing"

	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/faults"
	"rms/internal/linalg"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/sched"
)

// faultFixture compiles a conformance model and synthesizes observed
// data from it at its own name-hashed rate constants, so a fit started
// off-truth has a known optimum to recover.
func faultFixture(t *testing.T) (*Case, *estimator.Model, []*dataset.File) {
	t.Helper()
	net := RandomNetwork(rand.New(rand.NewSource(11)), 6)
	cs, err := NewCase(net, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(y []float64) float64 {
		s := 0.0
		for _, v := range y {
			s += v
		}
		return s
	}
	model := &estimator.Model{
		Prog: cs.Tape, Y0: cs.Sys.Y0, Property: prop,
		AnalyticJac: cs.Jac,
		SolverOpts:  ode.Options{RTol: 1e-8, ATol: 1e-11},
	}
	// Synthesize observations by integrating the model at the true k.
	ev := cs.Tape.NewEvaluator()
	je := cs.Jac.NewEvaluator()
	sample := func(times []float64) []float64 {
		y := append([]float64(nil), cs.Sys.Y0...)
		s := ode.NewBDF(func(_ float64, y, dy []float64) { ev.Eval(y, cs.K, dy) },
			len(y), ode.Options{
				RTol: 1e-9, ATol: 1e-12,
				Jacobian: func(_ float64, y []float64, dst *linalg.Matrix) { je.Eval(y, cs.K, dst) },
			})
		vals := make([]float64, len(times))
		tPrev := 0.0
		for i, tt := range times {
			if err := s.Integrate(tPrev, tt, y); err != nil {
				t.Fatal(err)
			}
			tPrev = tt
			vals[i] = prop(y)
		}
		return vals
	}
	var files []*dataset.File
	for fi, n := range []int{25, 20} {
		var times []float64
		for j := 0; j < n; j++ {
			times = append(times, 0.8*float64(j+1)/float64(n))
		}
		vals := sample(times)
		f := &dataset.File{Name: "fault" + string(rune('a'+fi)) + ".dat"}
		for j := range times {
			f.Records = append(f.Records, dataset.Record{T: times[j], Value: vals[j]})
		}
		files = append(files, f)
	}
	return cs, model, files
}

// Injected faults whose retries succeed must not move the converged
// parameters beyond tolerance: the fit through a flaky file lands on
// the same optimum as the failure-free fit.
func TestFaultedFitMatchesCleanFit(t *testing.T) {
	cs, model, files := faultFixture(t)
	start := make([]float64, len(cs.K))
	lower := make([]float64, len(cs.K))
	upper := make([]float64, len(cs.K))
	for i, v := range cs.K {
		start[i] = 1.3 * v
		lower[i] = 0.05
		upper[i] = 10
	}
	opts := nlopt.Options{MaxIter: 60, RelStep: 1e-4}

	fit := func(cfg estimator.Config) *nlopt.Result {
		e, err := estimator.New(model, files, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Estimate(start, lower, upper, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("fit did not converge (cfg %+v)", cfg)
		}
		return res
	}

	clean := fit(estimator.Config{Ranks: 2, Policy: sched.PolicyLPT})

	// Fail file 0's first attempt on two early objective calls; each
	// retry succeeds, so no file is rejected.
	plan := faults.NewPlan(3).FlakyFile(0, 1, 1).FlakyFile(0, 3, 1)
	e, err := estimator.New(model, files, estimator.Config{
		Ranks: 2, Policy: sched.PolicyLPT, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	faulted, err := e.Estimate(start, lower, upper, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !faulted.Converged {
		t.Fatal("faulted fit did not converge")
	}
	rec := e.Recovery()
	if rec.Retries < 2 {
		t.Errorf("recovery = %+v, want the two injected retries", rec)
	}
	if rec.PenalizedFiles != 0 {
		t.Errorf("recovery = %+v: retries were supposed to succeed", rec)
	}
	for i := range clean.X {
		if d := math.Abs(faulted.X[i] - clean.X[i]); d > 1e-3*(1+math.Abs(clean.X[i])) {
			t.Errorf("k[%d]: faulted %v vs clean %v (Δ %g)", i, faulted.X[i], clean.X[i], d)
		}
	}
}

// A rejected file (retries exhausted) writes NaN into exactly its own
// records and leaves the rest of the objective finite over conformance
// models — the accumulation guard holds on random networks, not just the
// hand-built decay fixtures.
func TestPenaltyKeepsResidualFinite(t *testing.T) {
	cs, model, files := faultFixture(t)
	e, err := estimator.New(model, files, estimator.Config{
		Ranks:  2,
		Faults: faults.NewPlan(5).FailFile(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r := make([]float64, e.ResidualDim())
	if err := e.Objective(cs.K, r); err != nil {
		t.Fatal(err)
	}
	failed := files[1].NumRecords()
	for i, v := range r {
		if i < failed && !math.IsNaN(v) {
			t.Errorf("residual[%d] = %v, want NaN (a record of the rejected file)", i, v)
		}
		if i >= failed && (math.IsNaN(v) || math.IsInf(v, 0)) {
			t.Errorf("residual[%d] = %v, want finite", i, v)
		}
	}
	if rec := e.Recovery(); rec.PenalizedFiles != 1 {
		t.Errorf("recovery = %+v, want one rejected file", rec)
	}
}
