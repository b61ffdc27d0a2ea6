package estimator

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/eqgen"
	"rms/internal/network"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/sched"
	"rms/internal/telemetry"
)

// decayModel builds A -> B with rate K_d; the property is [B].
func decayModel(t *testing.T) *Model {
	t.Helper()
	n := network.New()
	n.AddSpecies("A", "", 1)
	n.AddSpecies("B", "", 0)
	if _, err := n.AddReaction("r", "K_d", []string{"A"}, []string{"B"}); err != nil {
		t.Fatal(err)
	}
	sys := eqgen.FromNetwork(n)
	z := opt.Optimize(sys, opt.Full())
	prog, err := codegen.Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	return &Model{
		Prog:     prog,
		Y0:       sys.Y0,
		Property: func(y []float64) float64 { return y[1] },
		// Tight tolerances: the optimizer differentiates the objective
		// numerically, so solver truncation error must sit well below the
		// finite-difference perturbation's effect.
		SolverOpts: ode.Options{RTol: 1e-10, ATol: 1e-12},
	}
}

// trueCurve is [B](t) for A->B with k: 1 - e^{-kt}.
func trueCurve(k float64) dataset.PropertyFunc {
	return func(t float64) float64 { return 1 - math.Exp(-k*t) }
}

func makeFiles(k float64, counts []int) []*dataset.File {
	files := make([]*dataset.File, len(counts))
	for i, n := range counts {
		files[i] = dataset.Synthesize(trueCurve(k), dataset.SynthesizeOptions{
			Name: "exp" + string(rune('A'+i)), Records: n, T0: 0, T1: 2, Seed: int64(i),
		})
	}
	return files
}

func TestObjectiveZeroAtTruth(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.5, []int{40, 40})
	e, err := New(m, files, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.5}, r); err != nil {
		t.Fatal(err)
	}
	for i, v := range r {
		if math.Abs(v) > 1e-3 {
			t.Errorf("residual[%d] = %v at the true rate", i, v)
		}
	}
	if e.Calls() != 1 {
		t.Errorf("calls = %d", e.Calls())
	}
	if e.WallSeconds() <= 0 || e.ModeledOps() <= 0 {
		t.Error("timings not recorded")
	}
}

func TestObjectiveRanksAgree(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(0.8, []int{30, 20, 25, 35})
	var ref []float64
	for _, ranks := range []int{1, 2, 4} {
		e, err := New(m, files, Config{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, e.ResidualDim())
		if err := e.Objective([]float64{2.0}, r); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = append([]float64(nil), r...)
			continue
		}
		for i := range ref {
			if math.Abs(r[i]-ref[i]) > 1e-10 {
				t.Errorf("ranks=%d residual[%d] = %v, want %v", ranks, i, r[i], ref[i])
			}
		}
	}
}

func TestEstimateRecoversRate(t *testing.T) {
	m := decayModel(t)
	kTrue := 1.2
	files := makeFiles(kTrue, []int{50, 30})
	e, err := New(m, files, Config{Ranks: 2, Policy: sched.PolicyLPT})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Estimate([]float64{0.3}, []float64{0.01}, []float64{10},
		nlopt.Options{MaxIter: 60, RelStep: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-kTrue) > 1e-3 {
		t.Errorf("estimated k = %v, want %v (rnorm %g)", res.X[0], kTrue, res.RNorm)
	}
}

func TestObjectiveShapeErrors(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1, []int{10})
	e, _ := New(m, files, Config{Ranks: 1})
	if err := e.Objective([]float64{1}, make([]float64, 3)); err == nil {
		t.Error("wrong residual length accepted")
	}
	if err := e.Objective([]float64{1, 2}, make([]float64, e.ResidualDim())); err == nil {
		t.Error("wrong k length accepted")
	}
}

func TestNewValidation(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1, []int{10})
	if _, err := New(m, files, Config{Ranks: 0}); err == nil {
		t.Error("ranks=0 accepted")
	}
	if _, err := New(m, nil, Config{Ranks: 1}); err == nil {
		t.Error("no files accepted")
	}
	bad := *m
	bad.Y0 = []float64{1}
	if _, err := New(&bad, files, Config{Ranks: 1}); err == nil {
		t.Error("bad Y0 accepted")
	}
}

func TestBlockAssign(t *testing.T) {
	// The zero policy deals contiguous blocks of whole files; each item
	// carries its file's record count as cost.
	plan := func(counts []int, ranks int) [][]sched.Item {
		e, err := New(decayModel(t), makeFiles(1, counts), Config{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		return e.Plans()
	}
	files := func(plans [][]sched.Item) [][]int {
		out := make([][]int, len(plans))
		for r, plan := range plans {
			for _, it := range plan {
				out[r] = append(out[r], it.File)
			}
		}
		return out
	}
	a := files(plan(make([]int, 16), 4))
	for r := range a {
		if len(a[r]) != 4 {
			t.Errorf("rank %d got %d files", r, len(a[r]))
		}
	}
	// 5 files over 2 ranks: contiguous blocks of 3 + 2.
	if b := files(plan(make([]int, 5), 2)); !reflect.DeepEqual(b, [][]int{{0, 1, 2}, {3, 4}}) {
		t.Errorf("block plan (5 files, 2 ranks) = %v", b)
	}
	// More ranks than files: some ranks idle.
	if c := files(plan(make([]int, 2), 4)); !reflect.DeepEqual(c, [][]int{{0}, {1}, nil, nil}) {
		t.Errorf("block plan (2 files, 4 ranks) = %v", c)
	}
	for i, it := range plan([]int{7, 3, 5}, 2)[0] {
		if it.File != i || it.Cost != []float64{7, 3}[i] {
			t.Errorf("item %+v", it)
		}
	}
}

// Dynamic load balancing takes effect: after one call with imbalanced
// per-file costs, the lpt re-plan's makespan is no worse than the block
// plan's under the measured times.
func TestLoadBalanceImproves(t *testing.T) {
	m := decayModel(t)
	// One big file and several small ones — static blocks pair the big
	// file with another on the same rank.
	files := makeFiles(1.0, []int{400, 20, 20, 400, 20, 20, 20, 20})
	e, err := New(m, files, Config{Ranks: 2, Policy: sched.PolicyLPT})
	if err != nil {
		t.Fatal(err)
	}
	staticPlan := sched.Block(make([]float64, len(files)), 2)
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1}, r); err != nil {
		t.Fatal(err)
	}
	times := e.FileTimes()
	if lpt, static := sched.MakespanItems(e.Plans(), times), sched.MakespanItems(staticPlan, times); lpt > static+1e-9 {
		t.Errorf("LPT makespan %v worse than static %v", lpt, static)
	}
}

// Under the block policy the plan never changes.
func TestNoLoadBalanceKeepsAssignment(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.0, []int{60, 10, 10, 10})
	e, err := New(m, files, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Plans()
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1}, r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, e.Plans()) {
		t.Fatalf("block plan changed: %v → %v", before, e.Plans())
	}
}

// TestAnalyticJacobianAgrees: the estimator produces the same residuals
// and fits with the compiled symbolic Jacobian as with finite
// differences.
func TestAnalyticJacobianAgrees(t *testing.T) {
	m := decayModel(t)
	// Build the analytic Jacobian for the same A -> B system.
	n := network.New()
	n.AddSpecies("A", "", 1)
	n.AddSpecies("B", "", 0)
	n.AddReaction("r", "K_d", []string{"A"}, []string{"B"})
	sys := eqgen.FromNetwork(n)
	jp, err := codegen.CompileJacobian(sys, opt.Full())
	if err != nil {
		t.Fatal(err)
	}
	withJac := *m
	withJac.AnalyticJac = jp

	files := makeFiles(1.1, []int{40, 25})
	run := func(model *Model) []float64 {
		e, err := New(model, files, Config{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, e.ResidualDim())
		if err := e.Objective([]float64{0.7}, r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	fd := run(m)
	aj := run(&withJac)
	for i := range fd {
		if math.Abs(fd[i]-aj[i]) > 1e-7 {
			t.Errorf("residual[%d]: fd %v vs analytic %v", i, fd[i], aj[i])
		}
	}
}

// TestSolverFailurePropagates: an exploding model (positive feedback with
// a huge rate) aborts every integration attempt. The objective does not
// fail and does not zero-fill: the file's records come back NaN, and a
// fit started there fails with nlopt.ErrNonFinite.
func TestSolverFailurePropagates(t *testing.T) {
	n := network.New()
	n.AddSpecies("A", "", 1)
	// Autocatalysis A + A -> 3A explodes in finite time.
	n.AddReaction("boom", "K_b", []string{"A", "A"}, []string{"A", "A", "A"})
	sys := eqgen.FromNetwork(n)
	z := opt.Optimize(sys, opt.Full())
	prog, err := codegen.Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{
		Prog: prog, Y0: sys.Y0,
		Property:   func(y []float64) float64 { return y[0] },
		SolverOpts: ode.Options{RTol: 1e-8, ATol: 1e-10, MaxSteps: 2000},
	}
	files := makeFiles(1, []int{30})
	e, err := New(model, files, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1e9}, r); err != nil {
		t.Fatalf("Objective = %v, want the failure in the residual", err)
	}
	for i, v := range r {
		if !math.IsNaN(v) {
			t.Errorf("residual[%d] = %v, want NaN", i, v)
		}
	}
	if rec := e.Recovery(); rec.PenalizedFiles != 1 {
		t.Errorf("recovery = %+v, want the one file rejected", rec)
	}
	_, err = e.Estimate([]float64{1e9}, []float64{1}, []float64{1e10},
		nlopt.Options{MaxIter: 10, RelStep: 1e-4})
	if !errors.Is(err, nlopt.ErrNonFinite) {
		t.Errorf("Estimate = %v, want nlopt.ErrNonFinite", err)
	}
}

// TestAnalyzeFit: the Fig. 1 statistics step produces a tight interval
// around the recovered rate and near-perfect goodness on clean data.
func TestAnalyzeFit(t *testing.T) {
	m := decayModel(t)
	kTrue := 0.9
	// Gaussian measurement noise makes the interval statistically
	// meaningful (noise-free data gives a microscopically tight one).
	files := []*dataset.File{
		dataset.Synthesize(trueCurve(kTrue), dataset.SynthesizeOptions{
			Name: "nA", Records: 50, T0: 0, T1: 2, Noise: 2e-3, Seed: 11,
		}),
		dataset.Synthesize(trueCurve(kTrue), dataset.SynthesizeOptions{
			Name: "nB", Records: 30, T0: 0, T1: 2, Noise: 2e-3, Seed: 12,
		}),
	}
	e, err := New(m, files, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := e.Estimate([]float64{0.4}, []float64{0.01}, []float64{10},
		nlopt.Options{MaxIter: 60, RelStep: 1e-4, KeepJacobian: true})
	if err != nil {
		t.Fatal(err)
	}
	good, ivs, err := e.Analyze(fit)
	if err != nil {
		t.Fatal(err)
	}
	if good.R2 < 0.999 {
		t.Errorf("R2 = %v on clean data", good.R2)
	}
	if len(ivs) != 1 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	iv := ivs[0]
	if iv.Pinned {
		t.Fatal("fitted parameter reported pinned")
	}
	if kTrue < iv.Lower || kTrue > iv.Upper {
		t.Errorf("true rate %v outside interval [%v, %v]", kTrue, iv.Lower, iv.Upper)
	}
	// Without KeepJacobian the analysis refuses.
	fit2, err := e.Estimate([]float64{0.4}, []float64{0.01}, []float64{10},
		nlopt.Options{MaxIter: 10, RelStep: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Analyze(fit2); err == nil {
		t.Error("Analyze without KeepJacobian succeeded")
	}
}

// TestObjectiveObservesSteps: the per-file solves feed their step
// events into the ode.step_size histogram and chain the model's own step
// observer.
func TestObjectiveObservesSteps(t *testing.T) {
	m := *decayModel(t)
	var events atomic.Int64
	m.SolverOpts.Observer = func(ode.StepEvent) { events.Add(1) }
	reg := telemetry.NewRegistry()
	e, err := New(&m, makeFiles(0.9, []int{30, 25, 40}), Config{Ranks: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, e.ResidualDim())
	if err := e.Objective([]float64{1.4}, r); err != nil {
		t.Fatal(err)
	}
	if n := events.Load(); n == 0 || ode.StepSizeHistogram(reg).Count() != n {
		t.Errorf("model observer saw %d events, ode.step_size counted %d",
			n, ode.StepSizeHistogram(reg).Count())
	}
}
