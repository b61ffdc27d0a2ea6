package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/sched"
	"rms/internal/service"
)

// stageService holds the compile-once serve-millions layer to
// BIT-IDENTICAL numerics against the inline pipeline: the same network
// is (a) compiled by the service engine from its text form and driven
// through RunSimulate/RunFit, (b) served over a real HTTP listener and
// driven through the /v1 JSON API, and (c) integrated/fitted inline
// from the case's own tape exactly the way the pre-service CLIs did.
// All three must agree to 0 ulp — the engine's cached artifacts
// (shared tape, forked symbolic LU) and the JSON float64 wire encoding
// are both exactness-preserving by design, so any divergence at all is
// a service-layer bug altering numerics. The fit comparison covers the
// serial path and three ranks under the lpt load balancer.
func stageService(cs *Case, rec *Recorder, _ float64) error {
	spec := service.ModelSpec{Kind: service.KindNet, Source: network.FormatText(cs.Net)}
	eng := service.NewEngine(nil, nil)
	cm, _, err := eng.Compile(spec, nil)
	if err != nil {
		return fmt.Errorf("service compile: %w", err)
	}
	if len(cm.Res.System.Rates) != len(cs.Sys.Rates) {
		return fmt.Errorf("service compile: %d rates vs case %d", len(cm.Res.System.Rates), len(cs.Sys.Rates))
	}

	// --- simulate: engine vs the inline pre-service solver loop ---
	simReq := service.SimulateRequest{
		TEnd: 0.4, Points: 5, RTol: 1e-7, ATol: 1e-10, Rates: cs.KMap,
	}
	direct, err := service.RunSimulate(cm, simReq, service.SimOpts{})
	if err != nil {
		return fmt.Errorf("service simulate: %w", err)
	}
	inline, err := inlineSimulate(cs, simReq)
	if err != nil {
		return fmt.Errorf("inline simulate: %w", err)
	}
	if len(direct.Rows) != len(inline) {
		return fmt.Errorf("service simulate: %d rows vs inline %d", len(direct.Rows), len(inline))
	}
	for i := range inline {
		rec.CheckVec(fmt.Sprintf("simulate engine-vs-inline row%d", i), inline[i], direct.Rows[i], -1)
	}

	// --- the same requests over a live HTTP listener ---
	srv := service.New(service.Config{Engine: eng, QueueCap: 8, Workers: 1})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("service listen: %w", err)
	}
	defer srv.Shutdown(time.Second)

	httpSimReq := simReq
	httpSimReq.Spec = &spec // resolve through the cache, not by id
	var httpSim service.SimulateResult
	if err := postJob(addr, "/v1/simulate", httpSimReq, &httpSim); err != nil {
		return fmt.Errorf("http simulate: %w", err)
	}
	if len(httpSim.Rows) != len(direct.Rows) {
		return fmt.Errorf("http simulate: %d rows vs direct %d", len(httpSim.Rows), len(direct.Rows))
	}
	for i := range direct.Rows {
		rec.CheckVec(fmt.Sprintf("simulate http-vs-engine row%d", i), direct.Rows[i], httpSim.Rows[i], -1)
	}

	// --- fit: engine vs inline on every estimator execution path ---
	// Pin all but the first rates to truth so the finite-difference
	// Jacobian stays narrow; two LM iterations exercise the full
	// solve/trial/accept loop on each path.
	freeVars := 2
	if len(cs.K) < freeVars {
		freeVars = len(cs.K)
	}
	start := make([]float64, len(cs.K))
	lower := make([]float64, len(cs.K))
	upper := make([]float64, len(cs.K))
	for i, v := range cs.K {
		if i < freeVars {
			lower[i], upper[i], start[i] = v/2, v*2, 0.8*v
		} else {
			lower[i], upper[i], start[i] = v, v, v
		}
	}
	variants := []struct {
		name  string
		files func(cs *Case) []*dataset.File
		ecfg  estimator.Config
		req   service.FitRequest
	}{
		{
			name: "serial", files: conformanceFiles,
			ecfg: estimator.Config{Ranks: 1},
			req:  service.FitRequest{Ranks: 1},
		},
		{
			name: "sched-lpt", files: skewedFiles,
			ecfg: estimator.Config{Ranks: 3, Policy: sched.PolicyLPT},
			req:  service.FitRequest{Ranks: 3, LoadBalance: true},
		},
	}
	for _, v := range variants {
		files := v.files(cs)
		req := v.req
		req.Data = service.FromDataset(files)
		req.Property = "sum"
		req.RTol, req.ATol = 1e-7, 1e-10
		req.MaxIter, req.RelStep = 2, 1e-4
		req.Start, req.Lower, req.Upper = start, lower, upper
		out, err := service.RunFit(cm, req, service.FitOpts{})
		if err != nil {
			return fmt.Errorf("service fit (%s): %w", v.name, err)
		}
		fr := out.Result(cm.ID)
		out.Est.Close()

		ref, err := inlineFit(cs, files, v.ecfg, req)
		if err != nil {
			return fmt.Errorf("inline fit (%s): %w", v.name, err)
		}
		rec.CheckVec("fit engine-vs-inline x "+v.name, ref.X, fr.X, -1)
		rec.CheckExact("fit engine-vs-inline rnorm "+v.name, ref.RNorm, fr.RNorm)
		if ref.Iterations != fr.Iterations {
			rec.Failf("fit %s: %d iterations inline vs %d served", v.name, ref.Iterations, fr.Iterations)
		}

		req.Model = cm.ID // resolve by cached id over HTTP
		var httpFit service.FitResult
		if err := postJob(addr, "/v1/fit", req, &httpFit); err != nil {
			return fmt.Errorf("http fit (%s): %w", v.name, err)
		}
		rec.CheckVec("fit http-vs-engine x "+v.name, fr.X, httpFit.X, -1)
		rec.CheckExact("fit http-vs-engine rnorm "+v.name, fr.RNorm, httpFit.RNorm)
	}
	return nil
}

// inlineSimulate reproduces the pre-service rmssim integration loop on
// the case's own compiled artifacts: one dense-Jacobian BDF solver
// integrated sequentially across the evenly spaced output grid.
func inlineSimulate(cs *Case, req service.SimulateRequest) ([][]float64, error) {
	ev := cs.Tape.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, cs.K, dy) }
	je := cs.Jac.NewEvaluator()
	opts := ode.Options{RTol: req.RTol, ATol: req.ATol}
	opts.Jacobian = func(_ float64, y []float64, dst *linalg.Matrix) {
		je.Eval(y, cs.K, dst)
	}
	solver := ode.NewBDF(rhs, len(cs.Sys.Y0), opts)
	y := append([]float64(nil), cs.Sys.Y0...)
	rows := [][]float64{append([]float64{0}, y...)}
	for i := 1; i < req.Points; i++ {
		t0 := req.TEnd * float64(i-1) / float64(req.Points-1)
		t1 := req.TEnd * float64(i) / float64(req.Points-1)
		if err := solver.Integrate(t0, t1, y); err != nil {
			return nil, err
		}
		rows = append(rows, append([]float64{t1}, y...))
	}
	return rows, nil
}

// inlineFit reproduces the pre-service rmsrun estimation path on the
// case's own artifacts: estimator.New over the raw model (no shared
// symbolic LU) driven by nlopt directly.
func inlineFit(cs *Case, files []*dataset.File, ecfg estimator.Config, req service.FitRequest) (*nlopt.Result, error) {
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
		SolverOpts:  ode.Options{RTol: req.RTol, ATol: req.ATol},
	}
	e, err := estimator.New(model, files, ecfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Estimate(req.Start, req.Lower, req.Upper, nlopt.Options{
		MaxIter: req.MaxIter, RelStep: req.RelStep, KeepJacobian: true,
	})
}

// postJob drives one /v1 endpoint of a live server synchronously and
// decodes the finished job's result.
func postJob(addr, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+addr+path+"?wait=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var jv struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, jv.Error)
	}
	if jv.Status != "done" {
		return fmt.Errorf("job %s %s: %s", jv.ID, jv.Status, jv.Error)
	}
	return json.Unmarshal(jv.Result, out)
}
