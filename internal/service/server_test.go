package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rms/internal/linalg"
	"rms/internal/ode"
	"rms/internal/telemetry"
)

const testModel = `
species A = "[CH3:1][CH3:2]" init 1.0
reaction Decompose {
    reactants A
    disconnect 1:1 1:2
    rate K_d
}
`

func testSpec() ModelSpec {
	return ModelSpec{Kind: KindRDL, Source: testModel, RCIP: "K_d = 2"}
}

// newTestServer builds a Server over httptest with its own registry.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
		cfg.Registry = reg
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		ts.Close()
	})
	return srv, ts, reg
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeJob reads a JobView envelope, failing the test unless the job
// reached wantStatus; it decodes the result into out when non-nil.
func decodeJob(t *testing.T, resp *http.Response, wantStatus string, out any) JobView {
	t.Helper()
	defer resp.Body.Close()
	var raw struct {
		ID     string          `json:"id"`
		Kind   string          `json:"kind"`
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.Status != wantStatus {
		t.Fatalf("job %s: status %s (err %q), want %s", raw.ID, raw.Status, raw.Error, wantStatus)
	}
	if out != nil {
		if err := json.Unmarshal(raw.Result, out); err != nil {
			t.Fatalf("job %s result: %v", raw.ID, err)
		}
	}
	return JobView{ID: raw.ID, Kind: raw.Kind, Status: raw.Status, Error: raw.Error}
}

// TestLifecycle walks the full compile → simulate → fit → poll →
// stream arc one client would.
func TestLifecycle(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{QueueCap: 8, Workers: 2})

	// Compile. First request is a miss that compiles.
	resp := postJSON(t, ts.URL+"/v1/models?wait=1", testSpec())
	var info ModelInfo
	decodeJob(t, resp, "done", &info)
	if info.ID == "" || info.Cached {
		t.Fatalf("first compile: %+v", info)
	}
	if got := reg.Counter("service.compilations").Value(); got != 1 {
		t.Fatalf("compilations = %d, want 1", got)
	}

	// Second identical compile: cache hit, same id, no new compilation.
	resp = postJSON(t, ts.URL+"/v1/models?wait=1", testSpec())
	var info2 ModelInfo
	decodeJob(t, resp, "done", &info2)
	if !info2.Cached || info2.ID != info.ID {
		t.Fatalf("second compile: %+v (first id %s)", info2, info.ID)
	}
	if hits := reg.Counter("service.cache_hits").Value(); hits != 1 {
		t.Fatalf("cache_hits = %d, want 1", hits)
	}
	if got := reg.Counter("service.compilations").Value(); got != 1 {
		t.Fatalf("compilations after hit = %d, want 1", got)
	}

	// A different optimization level is a different content address.
	alt := testSpec()
	alt.Optimize = "none"
	resp = postJSON(t, ts.URL+"/v1/models?wait=1", alt)
	var info3 ModelInfo
	decodeJob(t, resp, "done", &info3)
	if info3.ID == info.ID || info3.Cached {
		t.Fatalf("optimize=none should compile fresh: %+v", info3)
	}

	// Model summary endpoint.
	resp, err := http.Get(ts.URL + "/v1/models/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET model = %d", resp.StatusCode)
	}

	// Submit a simulate job asynchronously, then poll.
	resp = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Model: info.ID, TEnd: 1, Points: 11})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("simulate submit = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	resp.Body.Close()
	if !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	resp, err = http.Get(ts.URL + loc + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var sim SimulateResult
	decodeJob(t, resp, "done", &sim)
	if len(sim.Rows) != 11 || sim.Rows[0][1] != 1.0 {
		t.Fatalf("trajectory: %d rows, y0=%v", len(sim.Rows), sim.Rows[0])
	}
	// A first-order decay at K_d=2: A(1) ≈ exp(-2).
	if a := sim.Rows[10][1]; a < 0.12 || a > 0.16 {
		t.Fatalf("A(1) = %g, want ≈ 0.135", a)
	}

	// Fit against data synthesized from the simulate result (property
	// "sum" is conserved-mass-ish; just check the machinery converges).
	df := DataFile{Name: "synth"}
	for _, row := range sim.Rows[1:] {
		s := 0.0
		for _, v := range row[1:] {
			s += v
		}
		df.T = append(df.T, row[0])
		df.V = append(df.V, s)
	}
	fitReq := FitRequest{
		Model: info.ID, Data: []DataFile{df}, Property: "sum",
		MaxIter: 5, RelStep: 1e-4,
		Start: []float64{1}, Lower: []float64{0.2}, Upper: []float64{20},
	}
	resp = postJSON(t, ts.URL+"/v1/fit?wait=1", fitReq)
	var fit FitResult
	jv := decodeJob(t, resp, "done", &fit)
	if len(fit.X) != 1 || fit.X[0] <= 0 {
		t.Fatalf("fit: %+v", fit)
	}
	// The fitted K_d should head back toward the truth the data came
	// from.
	if fit.X[0] < 1.2 || fit.X[0] > 3.5 {
		t.Errorf("fitted K_d = %g, want near 2", fit.X[0])
	}

	// Stream the fit job's flight recorder as ndjson.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	sawIter := false
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		if ev["kind"] == "iter" {
			sawIter = true
		}
		events++
	}
	if events == 0 || !sawIter {
		t.Fatalf("event stream: %d events, iter seen = %v", events, sawIter)
	}

	// The jobs index lists everything newest-first.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []JobView
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != 5 {
		t.Fatalf("jobs index has %d entries, want 5", len(jobs))
	}

	// Verify: cached vs fresh compilation, bit-identical.
	resp = postJSON(t, ts.URL+"/v1/verify?wait=1", VerifyRequest{Spec: testSpec()})
	var ver VerifyResult
	decodeJob(t, resp, "done", &ver)
	if !ver.OK || ver.Checks == 0 || ver.Mismatches != 0 {
		t.Fatalf("verify: %+v", ver)
	}
}

// TestFitUnsolvableStartFailsNonFinite submits a fit whose start point
// breaks the solver: every attempt underflows, the file's records come
// back NaN, and the job fails with the optimizer's start-point error
// while its event stream carries the retries and the rejection, each
// with the solver error.
func TestFitUnsolvableStartFailsNonFinite(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueCap: 4, Workers: 1})
	var info ModelInfo
	decodeJob(t, postJSON(t, ts.URL+"/v1/models?wait=1", testSpec()), "done", &info)
	df := DataFile{Name: "synth", T: []float64{0.1, 0.2, 0.3}, V: []float64{0.8, 0.7, 0.5}}
	fitReq := FitRequest{
		Model: info.ID, Data: []DataFile{df}, Property: "sum", MaxIter: 5,
		Start: []float64{1e30}, Lower: []float64{0.2}, Upper: []float64{1e40},
	}
	jv := decodeJob(t, postJSON(t, ts.URL+"/v1/fit?wait=1", fitReq), "failed", nil)
	if !strings.Contains(jv.Error, "nlopt: non-finite residual at the starting point") {
		t.Fatalf("job error = %q", jv.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	kinds := map[string]int{}
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		if ev.Scope != "estimator" || (ev.Kind != "retry" && ev.Kind != "penalize") {
			continue
		}
		kinds[ev.Kind]++
		if !strings.Contains(ev.Text(), "err=ode: step size underflow") {
			t.Errorf("event %q lacks the solver error", ev.Text())
		}
	}
	if kinds["retry"] != 2 || kinds["penalize"] != 1 {
		t.Errorf("estimator events %v, want 2 retries and 1 penalize", kinds)
	}
}

// TestSolverMetricFamilies: a simulate alone publishes its solver's
// whole Stats, work counters included, and its ode.steps and
// ode.rejected_steps are those of the solve it ran, replayed here on a
// bare solver. A fit on the same registry lands in the same families
// without a conflict, and every family the ode package defines is in the
// snapshot.
func TestSolverMetricFamilies(t *testing.T) {
	srv, ts, reg := newTestServer(t, Config{QueueCap: 4, Workers: 1})
	spec := testSpec()
	req := SimulateRequest{Spec: &spec, TEnd: 1, Points: 11}
	resp := postJSON(t, ts.URL+"/v1/simulate?wait=1", req)
	var sim SimulateResult
	decodeJob(t, resp, "done", &sim)

	got := snapshot(reg)
	for _, name := range []string{"ode.fevals", "ode.jevals", "ode.factor_ops", "ode.solve_ops"} {
		if got[name] == 0 {
			t.Errorf("%s = 0 after a simulate", name)
		}
	}
	st := replaySimulate(t, srv, req)
	if got["ode.steps"] != float64(st.Steps) || got["ode.rejected_steps"] != float64(st.Rejected) {
		t.Errorf("ode.steps %v, ode.rejected_steps %v; the solve's Stats %+v",
			got["ode.steps"], got["ode.rejected_steps"], st)
	}

	df := DataFile{Name: "synth"}
	for _, row := range sim.Rows[1:] {
		s := 0.0
		for _, v := range row[1:] {
			s += v
		}
		df.T = append(df.T, row[0])
		df.V = append(df.V, s)
	}
	resp = postJSON(t, ts.URL+"/v1/fit?wait=1", FitRequest{
		Spec: &spec, Data: []DataFile{df}, Property: "sum", MaxIter: 2, RelStep: 1e-4,
		Start: []float64{1}, Lower: []float64{0.2}, Upper: []float64{20},
	})
	decodeJob(t, resp, "done", nil)

	got = snapshot(reg)
	if c := got[telemetry.ConflictsMetric]; c != 0 {
		t.Errorf("%s = %v, want 0", telemetry.ConflictsMetric, c)
	}
	defined := telemetry.NewRegistry()
	ode.NewStatsMetrics(defined)
	ode.ObserveStepSize(defined, nil)
	families := defined.Snapshot()
	if len(families) == 0 {
		t.Fatal("the ode package defines no metric families")
	}
	for _, mv := range families {
		if _, ok := got[mv.Name]; !ok {
			t.Errorf("family %s missing after a simulate and a fit", mv.Name)
		}
	}
}

// snapshot reads a registry's values by name.
func snapshot(reg *telemetry.Registry) map[string]float64 {
	got := map[string]float64{}
	for _, mv := range reg.Snapshot() {
		got[mv.Name] = mv.Value
	}
	return got
}

// replaySimulate integrates a default simulate request's grid on a bare
// BDF with the model's dense analytic Jacobian and returns its Stats.
func replaySimulate(t *testing.T, srv *Server, req SimulateRequest) ode.Stats {
	t.Helper()
	cm, _, err := srv.Engine().Compile(*req.Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, err := rateVector(cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, je := cm.Res.Tape.NewEvaluator(), cm.Res.Jacobian.NewEvaluator()
	y := append([]float64(nil), cm.Res.System.Y0...)
	s := ode.NewBDF(func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }, len(y), ode.Options{
		RTol: 1e-8, ATol: 1e-11,
		Jacobian: func(_ float64, y []float64, dst *linalg.Matrix) { je.Eval(y, k, dst) },
	})
	for i := 1; i < req.Points; i++ {
		t0 := req.TEnd * float64(i-1) / float64(req.Points-1)
		t1 := req.TEnd * float64(i) / float64(req.Points-1)
		if err := s.Integrate(t0, t1, y); err != nil {
			t.Fatal(err)
		}
	}
	return s.Stats()
}

// TestAdmissionControl fills the queue with blocked jobs and checks the
// 429 + Retry-After contract, then drains and checks recovery.
func TestAdmissionControl(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{QueueCap: 1, Workers: 1})

	release := make(chan struct{})
	// Buffered: the worker's non-blocking send must not be lost when it
	// runs before the test goroutine reaches its receive.
	running := make(chan struct{}, 1)
	block := func(j *Job) (any, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-j.Budget().Done(): // stay drainable if the test bails early
		}
		return nil, nil
	}
	// One job occupies the worker...
	if _, err := srv.Queue().Submit("block", 0, block); err != nil {
		t.Fatal(err)
	}
	<-running // ...and is off the channel before the next fills the slot.
	if _, err := srv.Queue().Submit("block", 0, block); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/models", testSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var ae struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
		t.Fatalf("429 body: %v %q", err, ae.Error)
	}

	close(release)
	// The queue drains; a retry then succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/models?wait=1", testSpec())
		if resp.StatusCode == http.StatusOK {
			decodeJob(t, resp, "done", nil)
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBadRequests table-drives the 4xx surface: malformed JSON, type
// errors, unknown fields, oversized bodies, missing resources.
func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueCap: 4, Workers: 1})

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"truncated json", "/v1/models", `{"kind": "rdl"`, 400},
		{"not json", "/v1/simulate", `K_d = 2`, 400},
		{"wrong type", "/v1/simulate", `{"tend": "soon"}`, 400},
		{"unknown field", "/v1/models", `{"kind": "rdl", "sources": "x"}`, 400},
		{"array body", "/v1/fit", `[1,2,3]`, 400},
		{"retired workers field", "/v1/fit", `{"workers": 2}`, 400},
		{"lb with sched", "/v1/fit", `{"lb": true, "sched": {"policy": "ewma"}}`, 400},
		{"retired batch field", "/v1/fit", `{"batch": true}`, 400},
		{"retired ewma policy", "/v1/fit", `{"sched": {"policy": "ewma"}}`, 400},
		{"retired lanes and steal fields", "/v1/fit", `{"sched": {"lanes": 2, "steal": true}}`, 400},
		{"retired alpha field", "/v1/fit", `{"sched": {"alpha": 0.5}}`, 400},
		{"empty body", "/v1/verify", ``, 400},
		{"huge body", "/v1/models", `{"kind": "rdl", "source": "` + strings.Repeat("x", maxBodyBytes) + `"}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var ae struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
				t.Fatalf("error envelope: %v %q", err, ae.Error)
			}
		})
	}

	// Spec-level validation failures surface as failed jobs, not 5xx.
	resp := postJSON(t, ts.URL+"/v1/models?wait=1", ModelSpec{Kind: "fortran", Source: "x"})
	decodeJob(t, resp, "failed", nil)
	resp = postJSON(t, ts.URL+"/v1/simulate?wait=1", SimulateRequest{TEnd: 1, Points: 5})
	decodeJob(t, resp, "failed", nil) // no model and no spec
	spec := testSpec()
	resp = postJSON(t, ts.URL+"/v1/simulate?wait=1", SimulateRequest{
		Spec: &spec, TEnd: 1, Points: 5, Solver: "runge-kutta", Sparse: true})
	if jv := decodeJob(t, resp, "failed", nil); !strings.Contains(jv.Error, "sparse") {
		t.Errorf("runge-kutta with sparse failed with %q, want the sparse reason", jv.Error)
	}

	for _, path := range []string{"/v1/models/nope", "/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestShutdownDrain submits a slow job, shuts down, and checks the
// in-flight job finishes inside the drain window while new submissions
// bounce with 503.
// Network text whose names would compile to a wrong model (a species
// "A*B" shares the product key of A·B; a species "k1" passes for the rate
// constant k1) fails its compile job instead of serving a model.
func TestCompileRejectsAmbiguousNetworkNames(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{QueueCap: 4, Workers: 1})
	for _, src := range []string{
		"species A 2\nspecies B 3\nspecies A*B 1\nspecies C 4\nreaction r1 k1 : A B -> C\nreaction r2 k1 : A*B -> C\n",
		"species A 2\nspecies k1 3\nreaction r1 k1 : A ->\n",
	} {
		jv := decodeJob(t, postJSON(t, ts.URL+"/v1/models?wait=1", ModelSpec{Kind: KindNet, Source: src}), "failed", nil)
		if !strings.Contains(jv.Error, "line ") {
			t.Errorf("compile error %q does not name the line", jv.Error)
		}
	}
	if got := reg.Counter("service.compilations").Value(); got != 0 {
		t.Fatalf("compilations = %d, want 0", got)
	}
}

func TestShutdownDrain(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{QueueCap: 4, Workers: 1})

	started := make(chan struct{})
	finished := false
	j, err := srv.Queue().Submit("slow", 0, func(*Job) (any, error) {
		close(started)
		time.Sleep(300 * time.Millisecond)
		finished = true
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan bool, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()

	// The queue refuses new work immediately (the HTTP handler keeps
	// answering until the listener closes).
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/models", testSpec())
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server answered %d, want 503", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	clean := <-done
	if !clean {
		t.Fatal("drain reported unclean shutdown")
	}
	<-j.Done()
	if !finished || j.View().Status != "done" {
		t.Fatalf("in-flight job: finished=%v status=%s", finished, j.View().Status)
	}
}

// TestShutdownDeadline checks an over-budget job is cancelled at the
// drain deadline rather than pinning shutdown.
func TestShutdownDeadline(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{QueueCap: 4, Workers: 1})

	started := make(chan struct{})
	j, err := srv.Queue().Submit("stuck", 0, func(j *Job) (any, error) {
		close(started)
		<-j.Budget().Done() // cooperative cancellation point
		return nil, j.Budget().Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	start := time.Now()
	clean := srv.Shutdown(100 * time.Millisecond)
	if clean {
		t.Fatal("shutdown claimed clean despite stuck job")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown took %s", d)
	}
	<-j.Done()
	if got := j.View().Status; got != "canceled" {
		t.Fatalf("stuck job status = %s, want canceled", got)
	}
}

// TestSimulateDeadlinePartial checks a budget-stopped simulate job
// reports canceled with the partial rows attached. The tolerances are
// ones the solver can start at (at rtol 1e-12 its first step underflows
// at t = 0), and 400000 rows take many times the 50 ms deadline.
func TestSimulateDeadlinePartial(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{QueueCap: 4, Workers: 1})
	body := map[string]any{
		"spec": testSpec(), "tend": 1e6, "points": 400000,
		"rtol": 1e-10, "atol": 1e-12, "deadline_ms": 50,
	}
	resp := postJSON(t, ts.URL+"/v1/simulate?wait=1", body)
	defer resp.Body.Close()
	var raw struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.Status != "canceled" {
		t.Fatalf("status %s, want canceled at the deadline", raw.Status)
	}
	var sim SimulateResult
	if err := json.Unmarshal(raw.Result, &sim); err != nil {
		t.Fatal(err)
	}
	if len(sim.Rows) == 0 || sim.Row != len(sim.Rows)-1 {
		t.Fatalf("partial result: %d rows, Row=%d", len(sim.Rows), sim.Row)
	}
	if len(sim.Y) == 0 {
		t.Fatal("partial result missing resume state Y")
	}
	// The stopped run published its solver's Stats: one count per step
	// attempt the ode.step_size histogram saw.
	steps, rejected := reg.Counter("ode.steps").Value(), reg.Counter("ode.rejected_steps").Value()
	if attempts := reg.Histogram("ode.step_size", nil).Count(); steps == 0 || steps+rejected != attempts {
		t.Errorf("ode.steps %d + ode.rejected_steps %d after a budget stop, want the %d step attempts",
			steps, rejected, attempts)
	}
}

// TestEventStreamFollowsRunningJob starts the stream before the job
// finishes and checks it ends exactly when the job does.
func TestEventStreamFollowsRunningJob(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{QueueCap: 4, Workers: 1})
	srv.pollInterval = 5 * time.Millisecond

	release := make(chan struct{})
	j, err := srv.Queue().Submit("chatty", 0, func(j *Job) (any, error) {
		j.Log().Info("tick", "first")
		<-release
		j.Log().Info("tock", "second")
		return "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	seen := map[string]bool{}
	collect := func(until string, timeout time.Duration) {
		t.Helper()
		deadline := time.After(timeout)
		for {
			select {
			case ln, ok := <-lines:
				if !ok {
					return
				}
				var ev map[string]any
				if err := json.Unmarshal([]byte(ln), &ev); err != nil {
					t.Fatalf("bad line %q: %v", ln, err)
				}
				if name, _ := ev["kind"].(string); name != "" {
					seen[name] = true
					if name == until {
						return
					}
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q (seen %v)", until, seen)
			}
		}
	}
	collect("tick", 5*time.Second)
	close(release)
	collect("tock", 5*time.Second)
	// After the job completes the stream must terminate.
	select {
	case _, ok := <-lines:
		for ok {
			_, ok = <-lines
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after job completion")
	}
}

// TestCacheKeyStability pins the content-addressing contract: the key
// covers every spec field, and formatting-identical specs collide.
func TestCacheKeyStability(t *testing.T) {
	key := func(s ModelSpec) string {
		t.Helper()
		if err := s.normalize(); err != nil {
			t.Fatal(err)
		}
		return s.CacheKey()
	}
	k1 := key(testSpec())
	if k2 := key(testSpec()); k1 != k2 {
		t.Fatal("identical specs produced different keys")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not sha256 hex", k1)
	}
	variants := []func(*ModelSpec){
		func(s *ModelSpec) { s.Source += " " },
		func(s *ModelSpec) { s.RCIP = "K_d = 3" },
		func(s *ModelSpec) { s.Optimize = "none" },
	}
	for i, mut := range variants {
		s := testSpec()
		mut(&s)
		if key(s) == k1 {
			t.Fatalf("variant %d did not change the cache key", i)
		}
	}
	// Defaulted and explicit forms of the same spec share an address.
	implicit := ModelSpec{Source: testModel, RCIP: "K_d = 2"}
	explicit := ModelSpec{Kind: KindRDL, Source: testModel, RCIP: "K_d = 2", Optimize: "full"}
	if key(implicit) != key(explicit) {
		t.Fatal("defaulted spec addresses differently from its explicit form")
	}
}
