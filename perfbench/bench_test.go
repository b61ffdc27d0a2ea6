package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"rms/internal/service"
)

// inputs renders every generator's output for one seed.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	specs, err := compileRound(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Compile []service.ModelSpec
		Fit     []fitSpec
		Serve   serveInputs
	}{specs, fitOps(seed), serveMix(seed, 200, 400)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsAreSeeded(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed produced different inputs")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("two seeds produced the same inputs")
	}
}

func TestGeneratedRDLCompiles(t *testing.T) {
	eng := service.NewEngine(nil, nil)
	for seed := int64(1); seed <= 3; seed++ {
		specs, err := compileRound(seed)
		if err != nil {
			t.Fatal(err)
		}
		in := serveMix(seed, 100, 100)
		for _, q := range append(in.Open, in.Closed...) {
			if q.Kind == "compile_miss" {
				specs = append(specs, q.Spec)
			}
		}
		for _, s := range specs {
			if s.Kind != service.KindRDL {
				continue
			}
			cm, err := eng.BuildUncached(s)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, s.Source)
			}
			if len(cm.Res.Network.Reactions) == 0 {
				t.Fatalf("seed %d: empty network\n%s", seed, s.Source)
			}
		}
	}
}

// countMetrics are the per-layer metrics that must repeat exactly
// across runs of one seed.
var countMetrics = []string{
	"network.reactions", "opt.kept_ops_ratio", "codegen.jacobian_nnz",
	"nlopt.iterations", "nlopt.objective_calls", "nlopt.useful_call_ratio",
	"ode.steps", "ode.rejected_steps", "ode.newton_iters", "ode.fevals",
	"ode.jevals", "ode.factorizations", "linalg.factor_ops", "linalg.solve_ops",
	"service.cache_hit_ratio",
}

// shortTraced runs a shrunken traced run of each workload and returns
// its metrics.
func shortTraced(t *testing.T, seed int64) map[string]map[string]metric {
	t.Helper()
	out := map[string]map[string]metric{}
	run := func(name string, f func(r *report) error) {
		r := &report{res: result{Metrics: map[string]metric{}}}
		if err := f(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.checks) > 0 {
			t.Fatalf("%s: checks failed: %v", name, r.checks)
		}
		out[name] = r.res.Metrics
	}
	run("compile", func(r *report) error {
		specs, err := compileRound(seed)
		if err != nil {
			return err
		}
		specs = specs[:4]
		return traceCompile(opts{seed: seed}, r, service.NewEngine(nil, nil), specs, make([]*compileRef, len(specs)))
	})
	run("fit", func(r *report) error {
		sp := fitOps(seed)[1]
		sp.Files = sp.Files[:2]
		jobs, err := setupFit([]fitSpec{sp})
		if err != nil {
			return err
		}
		return traceFit(r, jobs)
	})
	run("serve", func(r *report) error {
		in := serveMix(seed, 40, closedTraced)
		for i := range in.Due {
			// A quarter of the workload's rate, so that the race
			// detector's slowdown cannot fill the queue.
			in.Due[i] *= 4
		}
		env, err := startServe(in)
		if err != nil {
			return err
		}
		chk, err := newServeChecker(in)
		if err != nil {
			env.stop()
			return err
		}
		return traceServe(r, in, env, chk)
	})
	return out
}

func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three traced workloads twice")
	}
	a, b := shortTraced(t, 3), shortTraced(t, 3)
	for wl, ma := range a {
		for _, name := range countMetrics {
			va, vb := ma[name].Value, b[wl][name].Value
			if va != vb {
				t.Errorf("%s: %s = %v, then %v", wl, name, va, vb)
			}
		}
	}
	if a["fit"]["nlopt.objective_calls"].Value == 0 || a["serve"]["service.cache_hit_ratio"].Value == 0 {
		t.Error("the short runs did not exercise the fit or serve counters")
	}
}
