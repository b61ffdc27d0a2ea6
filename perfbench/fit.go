package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/service"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// fitTraced is how many fits of the list the traced run makes.
const fitTraced = 4

// fitJob is one fit request with its compiled model.
type fitJob struct {
	spec fitSpec
	cm   *service.CompiledModel
	req  service.FitRequest
	// x and rnorm are the first result, every repeat must match bit
	// for bit.
	x     []float64
	rnorm float64
}

// setupFit compiles the fits' models and synthesizes each model's data
// at the true rates through service.RunSimulate, at a tolerance tighter
// than the fits'.
func setupFit(specs []fitSpec) ([]*fitJob, error) {
	eng := service.NewEngine(nil, nil)
	data := map[int][]service.DataFile{}
	var jobs []*fitJob
	for _, sp := range specs {
		cm, _, err := eng.Compile(service.ModelSpec{Kind: service.KindVulcan, Variants: sp.Variants}, nil)
		if err != nil {
			return nil, err
		}
		if _, ok := data[sp.Variants]; !ok {
			if data[sp.Variants], err = synthesize(cm, sp.Files); err != nil {
				return nil, err
			}
		}
		req := service.FitRequest{
			Data: data[sp.Variants], Property: "crosslink", RTol: fitRTol, ATol: fitATol,
			Ranks: fitRanks, LoadBalance: true, RelStep: fitRelStep, Tol: fitLMTol,
		}
		for _, name := range cm.Res.System.Rates {
			t := vulcan.TrueRates[name]
			req.Start = append(req.Start, t)
			req.Lower = append(req.Lower, t)
			req.Upper = append(req.Upper, t)
		}
		for j, i := range sp.Free {
			t := vulcan.TrueRates[cm.Res.System.Rates[i]]
			req.Start[i], req.Lower[i], req.Upper[i] = t*sp.Start[j], t/10, t*10
		}
		jobs = append(jobs, &fitJob{spec: sp, cm: cm, req: req})
	}
	return jobs, nil
}

// synthesize samples the model's crosslink density at the true rates
// into one data file per fitFile.
func synthesize(cm *service.CompiledModel, files []fitFile) ([]service.DataFile, error) {
	xl := vulcan.CrosslinkIndices(cm.Res.System)
	var out []service.DataFile
	for f, ff := range files {
		sim, err := service.RunSimulate(cm, service.SimulateRequest{
			TEnd: ff.TEnd, Points: ff.Records + 1, Rates: vulcan.TrueRates,
			RTol: 1e-11, ATol: 1e-14,
		}, service.SimOpts{})
		if err != nil {
			return nil, fmt.Errorf("synthesize data: %w", err)
		}
		df := service.DataFile{Name: fmt.Sprintf("exp%02d", f+1)}
		for _, row := range sim.Rows[1:] {
			v := 0.0
			for _, i := range xl {
				v += row[1+i]
			}
			df.T = append(df.T, row[0])
			df.V = append(df.V, v)
		}
		out = append(out, df)
	}
	return out, nil
}

// checkFit checks a fit's outcome: every free constant within fitTol of
// the rate that synthesized the data, and X and RNorm bit-identical to
// the job's first fit.
func (j *fitJob) checkFit(out *service.FitOutcome, r *report) {
	for _, i := range j.spec.Free {
		name := j.cm.Res.System.Rates[i]
		if e := math.Abs(out.Fit.X[i]/vulcan.TrueRates[name] - 1); !(e <= fitTol) {
			r.fail("fit: %s landed at %g, truth %g (relative error %.2g > %g)",
				name, out.Fit.X[i], vulcan.TrueRates[name], e, fitTol)
		}
	}
	if j.x == nil {
		j.x, j.rnorm = append([]float64(nil), out.Fit.X...), out.Fit.RNorm
		return
	}
	if !sameBits([][]float64{j.x, {j.rnorm}}, [][]float64{out.Fit.X, {out.Fit.RNorm}}) {
		r.fail("fit: a repeated fit of one request returned a different X or RNorm")
	}
}

// runFit is the fit workload: one client in a closed loop running
// service.RunFit, the path behind rmsrun and rmsd's fit job.
func runFit(o opts, r *report) error {
	specs := fitOps(o.seed)
	var jobs []*fitJob
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if jobs, err = setupFit(specs); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if o.trace {
		return traceFit(r, jobs[:fitTraced])
	}

	var lat []float64
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		j := jobs[i%len(jobs)]
		t0 := time.Now()
		out, err := service.RunFit(j.cm, j.req, service.FitOpts{})
		d := time.Since(t0).Seconds()
		r.op(err)
		if err != nil {
			continue
		}
		out.Est.Close()
		lat = append(lat, d)
		j.checkFit(out, r)
	}
	elapsed := time.Since(start).Seconds()
	if len(lat) <= len(jobs) {
		// No fit repeated inside the timed loop: repeat the first one
		// outside it, for the bit-identity check.
		if out, err := service.RunFit(jobs[0].cm, jobs[0].req, service.FitOpts{}); err != nil {
			r.fail("repeat fit: %v", err)
		} else {
			out.Est.Close()
			jobs[0].checkFit(out, r)
		}
	}
	r.metric("setup_s", median(setups), "s", len(setups))
	r.metric("peak_rss_mb", peakRSSMB(), "MB", 1)
	r.metric("latency_p50_ms", 1e3*median(lat), "ms", len(lat))
	r.metric("capacity_rps", float64(len(lat))/elapsed, "1/s", len(lat))
	r.info("fit_s", median(lat), "s", len(lat))
	return nil
}

// traceFit is the fit workload's traced run: each of the given fits
// once untraced and once with FitOpts.Tracer, Registry and Observer on,
// then one solve probe per fit.
func traceFit(r *report, jobs []*fitJob) error {
	l := newLayers()
	reg := telemetry.NewRegistry()
	var untraced, traced, worst float64
	var useful, calls float64
	var alloc float64
	g0 := readGo()
	for _, j := range jobs {
		a0 := readGo().allocBytes
		t0 := time.Now()
		out, err := service.RunFit(j.cm, j.req, service.FitOpts{})
		untraced += ms(time.Since(t0))
		alloc += readGo().allocBytes - a0
		r.op(err)
		if err != nil {
			continue
		}
		out.Est.Close()
		j.checkFit(out, r)

		tr := telemetry.NewTracer()
		trials := 0
		t0 = time.Now()
		out, err = service.RunFit(j.cm, j.req, service.FitOpts{
			Tracer: tr, Registry: reg,
			Observer: func(ev nlopt.IterEvent) { trials += ev.Trials },
		})
		wall := time.Since(t0)
		if err != nil {
			r.fail("traced fit: %v", err)
			continue
		}
		out.Est.Close()
		j.checkFit(out, r)
		traced += ms(wall)

		sp, err := spans(tr)
		if err != nil {
			return err
		}
		var objective time.Duration
		perRank := map[string][2]time.Duration{} // solve, wait
		for _, s := range sp {
			switch {
			case s.Lane == "estimator" && strings.HasPrefix(s.Name, "objective #"):
				objective += s.Dur
			case strings.HasPrefix(s.Lane, "rank "):
				acc := perRank[s.Lane]
				if strings.HasPrefix(s.Name, "solve ") {
					acc[0] += s.Dur
				} else {
					acc[1] += s.Dur
				}
				perRank[s.Lane] = acc
			}
		}
		var solve, wait time.Duration
		for _, acc := range perRank {
			solve += acc[0] / time.Duration(len(perRank))
			wait += acc[1] / time.Duration(len(perRank))
		}
		unattributed := objective - solve - wait
		l.add("wall_ms", ms(wall))
		l.add("nlopt.self_ms", ms(wall-objective))
		l.add("estimator.objective_ms", ms(objective))
		l.add("estimator.file_solve_ms", ms(solve))
		l.add("mpi_wait_ms", ms(wait))
		l.add("unattributed_ms", ms(unattributed))
		worst = math.Max(worst, float64(unattributed)/float64(wall))

		it := out.Fit.Iterations
		n := out.Est.Calls()
		if want := 1 + (it+1)*len(j.req.Start) + trials; n != want {
			r.fail("fit: %d objective calls, the LM accounting predicts %d", n, want)
		}
		l.add("nlopt.iterations", float64(it))
		l.add("nlopt.objective_calls", float64(n))
		useful += float64(1 + (it+1)*len(j.spec.Free) + trials)
		calls += float64(n)
		modelCounts(j.cm, l)
		l.ops++
	}
	g1 := readGo()
	if worst > 0.05 {
		r.fail("fit ledger: an operation's layers leave %.1f%% of its traced time unattributed", 100*worst)
	}

	var p probe
	for _, j := range jobs {
		q, err := probeFit(j)
		if err != nil {
			r.fail("fit solve probe: %v", err)
			continue
		}
		p.add(q)
	}

	direct := map[string]float64{
		"nlopt.useful_call_ratio": useful / calls,
		"mpi.wait_share":          l.sum["mpi_wait_ms"] / l.sum["estimator.objective_ms"],
		"codegen.rhs_us":          p.rhsUS(),
		"codegen.jac_us":          p.jacUS(),
		"ode.self_share":          p.selfShare(),
		"go.alloc_mb_per_op":      alloc / 1e6 / float64(l.ops),
		"go.gc_cpu_share":         (g1.gcCPU - g0.gcCPU) / math.Max(g1.totalCPU-g0.totalCPU, 1e-9),
		"trace.overhead_ms":       (traced - untraced) / float64(l.ops),
		"unattributed_share":      l.sum["unattributed_ms"] / l.sum["wall_ms"],
	}
	// Solver work per file solve, from the estimator's registry.
	vals := map[string]float64{}
	for _, mv := range reg.Snapshot() {
		vals[mv.Name] = mv.Value
	}
	solves := vals["estimator.file_solves"]
	for _, name := range []string{"ode.steps", "ode.rejected_steps", "ode.newton_iters", "ode.fevals", "ode.jevals", "ode.factorizations"} {
		direct[name] = vals[name] / solves
	}
	direct["linalg.factor_ops"] = vals["ode.factor_ops"] / solves
	direct["linalg.solve_ops"] = vals["ode.solve_ops"] / solves
	l.emit(r, direct)
	return nil
}

// toFiles converts wire data files to estimator inputs.
func toFiles(in []service.DataFile) []*dataset.File {
	files := make([]*dataset.File, len(in))
	for i, df := range in {
		f := &dataset.File{Name: df.Name}
		for j := range df.T {
			f.Records = append(f.Records, dataset.Record{T: df.T[j], Value: df.V[j]})
		}
		files[i] = f
	}
	return files
}

// probeFit re-solves the fit's first data file at the true rates the way
// the estimator's per-file solve does, with timed callbacks, and checks
// the residuals bit for bit against a one-file estimator's objective.
func probeFit(j *fitJob) (probe, error) {
	var p probe
	cm := j.cm
	k := make([]float64, len(cm.Res.System.Rates))
	for i, name := range cm.Res.System.Rates {
		k[i] = vulcan.TrueRates[name]
	}
	df := j.req.Data[0]
	xl := vulcan.CrosslinkIndices(cm.Res.System)
	t0 := time.Now()
	s := timedSolver(cm, k, ode.Options{RTol: fitRTol, ATol: fitATol}, "estimator", &p)
	y := append([]float64(nil), cm.Res.System.Y0...)
	got := make([]float64, len(df.T))
	t := 0.0
	for i, tt := range df.T {
		if tt > t {
			if err := s.Integrate(t, tt, y); err != nil {
				return p, err
			}
			t = tt
		}
		v := 0.0
		for _, xi := range xl {
			v += y[xi]
		}
		got[i] = 0 + (v - df.V[i]) // as the estimator accumulates into a zeroed residual
	}
	p.wall = time.Since(t0)

	one := j.req
	one.Data = j.req.Data[:1]
	one.Ranks = 1
	model := cm.Res.Model(vulcan.CrosslinkProperty(cm.Res.System), ode.Options{RTol: fitRTol, ATol: fitATol})
	model.SymbolicLU = cm.LU
	est, err := estimator.New(model, toFiles(one.Data), estimator.Config{Ranks: 1})
	if err != nil {
		return p, err
	}
	defer est.Close()
	want := make([]float64, est.ResidualDim())
	if err := est.Objective(k, want); err != nil {
		return p, err
	}
	if !sameBits([][]float64{got}, [][]float64{want}) {
		return p, fmt.Errorf("probe residuals differ from the estimator's")
	}
	return p, nil
}
