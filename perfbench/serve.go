package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rms/internal/budget"
	"rms/internal/service"
	"rms/internal/telemetry"
)

// Serve phase sizes. The open loop sends serveRate × openShare ×
// --seconds requests (at least 110, so that its p90 has ten samples
// beyond it); the closed loop sends closedPerSecond × --seconds, about
// the rest of --seconds at the first commit's capacity. Fixed counts
// keep peak_rss_mb steady, since the server keeps every finished job.
// The traced run sends fixed counts, so its counts repeat exactly.
const (
	openMin         = 110
	openShare       = 0.5
	openTraced      = 110
	closedPerSecond = 35
	closedTraced    = 80
)

// serveEnv is one in-process rmsd, configured the way cmd/rmsd
// configures it (registry and recorder on, queue 16, 2 workers, a
// free port on 127.0.0.1), with the workload's models compiled.
type serveEnv struct {
	srv    *service.Server
	bud    *budget.Budget
	base   string
	models []string // model IDs, aligned with serveInputs.Models
}

// reply is what the client keeps of a job view: the result itself is
// hashed and dropped, so the client's memory stays flat however many
// requests a run sends.
type reply struct {
	id, status, errMsg string
	// cached is a compile result's cache flag; sum the SHA-256 of the
	// result's JSON. Go encodes float64 in shortest round-trip form, so
	// equal sums mean bit-identical trajectories.
	cached bool
	sum    [32]byte
}

// newClient returns an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// call sends one request and returns the response body and the
// telemetry-clock time at which it was fully read.
func call(c *http.Client, method, url string, body []byte) ([]byte, int64, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, telemetry.Now(), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	got := telemetry.Now()
	if err != nil {
		return nil, got, err
	}
	if resp.StatusCode >= 300 {
		return nil, got, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, got, nil
}

// summarize decodes a job view into a reply.
func summarize(b []byte, kind string) (reply, error) {
	var v struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return reply{}, err
	}
	rp := reply{id: v.ID, status: v.Status, errMsg: v.Error}
	switch {
	case v.Status != service.JobDone:
	case kind == "simulate":
		rp.sum = sha256.Sum256(v.Result)
	default:
		var info service.ModelInfo
		if err := json.Unmarshal(v.Result, &info); err != nil {
			return rp, err
		}
		rp.cached = info.Cached
	}
	return rp, nil
}

// startServe starts rmsd and compiles the workload's models through
// POST /v1/models.
func startServe(in serveInputs) (*serveEnv, error) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(0)
	log := telemetry.NewLogger(rec)
	bud := budget.New().WithLogger(log.Scope("budget"))
	srv := service.New(service.Config{
		Program: "rmsd", QueueCap: 16, Workers: 2, Drain: 5 * time.Second,
		Registry: reg, Recorder: rec, Log: log, Budget: bud,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{srv: srv, bud: bud, base: "http://" + addr}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, spec := range in.Models {
		body, _ := json.Marshal(spec)
		b, _, err := call(c, "POST", env.base+"/v1/models?wait=1", body)
		var v struct {
			Status string            `json:"status"`
			Error  string            `json:"error"`
			Result service.ModelInfo `json:"result"`
		}
		if err == nil {
			err = json.Unmarshal(b, &v)
		}
		if err == nil && v.Status != service.JobDone {
			err = fmt.Errorf("compile job %s: %s", v.Status, v.Error)
		}
		if err != nil {
			env.stop()
			return nil, fmt.Errorf("set-up compile: %w", err)
		}
		env.models = append(env.models, v.Result.ID)
	}
	return env, nil
}

func (e *serveEnv) stop() {
	e.srv.Shutdown(5 * time.Second)
	e.bud.Cancel("benchmark done")
}

// body renders a request of the mix as its endpoint and JSON body.
func (e *serveEnv) body(in serveInputs, q serveReq) (string, []byte) {
	if q.Kind == "simulate" {
		s := in.Sims[q.Sim]
		req := s.Req
		req.Model = e.models[s.Model]
		b, _ := json.Marshal(req)
		return "/v1/simulate", b
	}
	b, _ := json.Marshal(q.Spec)
	return "/v1/models", b
}

// outcome is one completed request. Times are on the telemetry clock,
// which the in-process server's job events share.
type outcome struct {
	req            serveReq
	due, sent, got int64
	reply
	err error
}

func (o outcome) latencyMS() float64 { return float64(o.got-o.due) / 1e6 }

// openLoop submits reqs at their due offsets (seconds from the phase
// start) on one connection without waiting, and reads each result back
// with GET /v1/jobs/{id}?wait=1 on a second connection, in submission
// order.
func (e *serveEnv) openLoop(in serveInputs, reqs []serveReq, due []float64) []outcome {
	out := make([]outcome, len(reqs))
	submitted := make(chan int, len(reqs)) // one send per request
	sub, rd := newClient(), newClient()
	defer sub.CloseIdleConnections()
	defer rd.CloseIdleConnections()
	bodies := make([][]byte, len(reqs))
	paths := make([]string, len(reqs))
	for i, q := range reqs {
		paths[i], bodies[i] = e.body(in, q)
	}
	start := telemetry.Now()
	go func() {
		defer close(submitted)
		for i := range reqs {
			o := &out[i]
			o.req = reqs[i]
			o.due = start + int64(due[i]*1e9)
			if wait := time.Duration(o.due - telemetry.Now()); wait > 0 {
				time.Sleep(wait)
			}
			o.sent = telemetry.Now()
			b, _, err := call(sub, "POST", e.base+paths[i], bodies[i])
			if err == nil {
				o.reply, err = summarize(b, "")
			}
			o.err = err
			submitted <- i
		}
	}()
	for i := range submitted {
		o := &out[i]
		if o.err != nil {
			o.got = telemetry.Now()
			continue
		}
		var b []byte
		b, o.got, o.err = call(rd, "GET", e.base+"/v1/jobs/"+o.id+"?wait=1", nil)
		if o.err == nil {
			o.reply, o.err = summarize(b, o.req.Kind)
		}
	}
	return out
}

// closedLoop runs two clients posting with ?wait=1, the way rmsctl
// does, each over its half of reqs, and returns the outcomes and the
// phase's duration in seconds.
func (e *serveEnv) closedLoop(in serveInputs, reqs []serveReq) ([]outcome, float64) {
	const clients = 2
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for i := c; i < len(reqs); i += clients {
				path, body := e.body(in, reqs[i])
				o := outcome{req: reqs[i], due: telemetry.Now()}
				o.sent = o.due
				var b []byte
				b, o.got, o.err = call(cl, "POST", e.base+path+"?wait=1", body)
				if o.err == nil {
					o.reply, o.err = summarize(b, o.req.Kind)
				}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0).Seconds()
}

// scrape reads the server's OpenMetrics exposition.
func (e *serveEnv) scrape() (map[string]float64, error) {
	resp, err := http.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = v
		}
	}
	return vals, sc.Err()
}

// serveChecker holds the references the serve checks compare against.
type serveChecker struct {
	in   serveInputs
	eng  *service.Engine
	sums map[int][32]byte // simulate pool index → service.RunSimulate result hash
	cms  []*service.CompiledModel
}

// newServeChecker compiles the models in a fresh engine, so the checks
// also cover the cache: a cached model must simulate bit-identically to
// a freshly compiled one.
func newServeChecker(in serveInputs) (*serveChecker, error) {
	c := &serveChecker{in: in, eng: service.NewEngine(nil, nil), sums: map[int][32]byte{}}
	for _, spec := range in.Models {
		cm, _, err := c.eng.Compile(spec, nil)
		if err != nil {
			return nil, err
		}
		c.cms = append(c.cms, cm)
	}
	return c, nil
}

// check verifies every outcome: each request done, compile hits cached
// and misses fresh, every simulate bit-identical to service.RunSimulate
// on the same model and request. It returns the cache hits and misses
// the compile requests saw.
func (c *serveChecker) check(outs []outcome, r *report) (hits, misses int) {
	for _, o := range outs {
		r.res.Attempted++
		if o.err == nil && o.status != service.JobDone {
			o.err = fmt.Errorf("job %s %s: %s", o.id, o.status, o.errMsg)
		}
		if o.err != nil {
			r.res.Failed++
			r.fail("serve %s: %v", o.req.Kind, o.err)
			continue
		}
		switch o.req.Kind {
		case "simulate":
			want, ok := c.sums[o.req.Sim]
			if !ok {
				s := c.in.Sims[o.req.Sim]
				res, err := service.RunSimulate(c.cms[s.Model], s.Req, service.SimOpts{})
				if err != nil {
					r.fail("reference simulate: %v", err)
					continue
				}
				b, err := json.Marshal(res)
				if err != nil {
					r.fail("reference simulate: %v", err)
					continue
				}
				want = sha256.Sum256(b)
				c.sums[o.req.Sim] = want
			}
			if o.sum != want {
				r.fail("serve: simulate %s differs from service.RunSimulate", o.id)
			}
		default:
			if o.cached != (o.req.Kind == "compile_hit") {
				r.fail("serve: %s request answered cached=%v", o.req.Kind, o.cached)
			}
			if o.cached {
				hits++
			} else {
				misses++
			}
		}
	}
	return hits, misses
}

// checkCache compares the /metrics cache counters with the mix's counts
// (the set-up's model compiles are misses too).
func (c *serveChecker) checkCache(e *serveEnv, hits, misses int, r *report) (map[string]float64, error) {
	vals, err := e.scrape()
	if err != nil {
		return nil, err
	}
	gotH, gotM := vals["rms_service_cache_hits_total"], vals["rms_service_cache_misses_total"]
	if int(gotH) != hits || int(gotM) != misses+len(c.in.Models) {
		r.fail("serve: /metrics reports %v cache hits and %v misses, the mix made %d and %d",
			gotH, gotM, hits, misses+len(c.in.Models))
	}
	return vals, nil
}

// openCount is the open loop's fixed request count for a run.
func openCount(seconds float64) int {
	return max(openMin, int(math.Ceil(serveRate*openShare*seconds)))
}

// runServe is the serve workload: rmsd in-process, an open loop of
// seeded Poisson arrivals at serveRate, then a closed loop of two
// clients. The gated latency and capacity come from the closed loop;
// the open loop's median and p90 print as info lines. At the open
// loop's low rate the host's vCPUs idle between requests, and waking
// them on a shared host made its median move by a quarter between
// runs, against about a tenth for the busy closed loop.
func runServe(o opts, r *report) error {
	in := serveMix(o.seed, openCount(o.seconds), max(closedTraced, int(closedPerSecond*o.seconds)))
	var env *serveEnv
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			env.stop()
		}
		t0 := time.Now()
		var err error
		if env, err = startServe(in); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	chk, err := newServeChecker(in)
	if err != nil {
		env.stop()
		return err
	}
	if o.trace {
		return traceServe(r, in, env, chk)
	}
	defer func() { env.stop() }()

	// Each phase runs against a freshly started rmsd, so the closed loop
	// does not inherit the open loop's retained jobs (the server keeps
	// every finished job, and a larger heap costs every later request).
	open := env.openLoop(in, in.Open, in.Due)
	h, m := chk.check(open, r)
	if _, err := chk.checkCache(env, h, m, r); err != nil {
		return err
	}
	env.stop()
	if env, err = startServe(in); err != nil {
		return err
	}
	closed, elapsed := env.closedLoop(in, in.Closed)
	h, m = chk.check(closed, r)
	if _, err := chk.checkCache(env, h, m, r); err != nil {
		return err
	}

	late := 0.0
	for _, oc := range open {
		late = math.Max(late, float64(oc.sent-oc.due)/1e6)
	}
	openLat, closedLat := latencies(open), latencies(closed)
	r.metric("setup_s", median(setups), "s", len(setups))
	r.metric("peak_rss_mb", peakRSSMB(), "MB", 1)
	r.metric("latency_p50_ms", median(closedLat), "ms", len(closedLat))
	r.metric("capacity_rps", float64(len(closed))/elapsed, "1/s", len(closed))
	r.info("closed_p90_ms", percentile(closedLat, 0.9), "ms", len(closedLat))
	r.info("open_p50_ms", median(openLat), "ms", len(openLat))
	r.info("open_p90_ms", percentile(openLat, 0.9), "ms", len(openLat))
	r.info("generator_late_max_ms", late, "ms", len(open))
	return nil
}

// jobTimes are a job's event timestamps.
type jobTimes struct {
	started, finished int64
}

// events reads a finished job's event stream.
func (e *serveEnv) events(id string) (jobTimes, error) {
	var jt jobTimes
	resp, err := http.Get(e.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jt, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev telemetry.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return jt, err
		}
		switch {
		case ev.Kind == "job" && strings.HasPrefix(ev.Msg, "job started"):
			jt.started = ev.TimeNs
		case ev.Kind == "job" && strings.HasPrefix(ev.Msg, "job finished"):
			jt.finished = ev.TimeNs
		}
	}
	if jt.started == 0 || jt.finished == 0 {
		return jt, fmt.Errorf("job %s: start or finish event missing", id)
	}
	return jt, nil
}

// traceServe is the serve workload's traced run, and stops env: a
// fixed open loop run untraced on env and traced on a fresh server (the difference in
// mean latency is the overhead), then a fixed closed loop, then the
// solve probes. Each request's timeline is split at its job events:
// generator lateness, queue wait (job started minus submit), run and
// response (job finished until the result was read back).
func traceServe(r *report, in serveInputs, env *serveEnv, chk *serveChecker) error {
	reqs, due := in.Open[:min(openTraced, len(in.Open))], in.Due
	untraced := env.openLoop(in, reqs, due)
	h, m := chk.check(untraced, r)
	if _, err := chk.checkCache(env, h, m, r); err != nil {
		return err
	}
	env.stop()
	env, err := startServe(in)
	if err != nil {
		return err
	}
	defer env.stop()

	g0 := readGo()
	open := env.openLoop(in, reqs, due)
	alloc := readGo().allocBytes - g0.allocBytes
	closed, _ := env.closedLoop(in, in.Closed[:closedTraced])
	g1 := readGo()
	h1, m1 := chk.check(open, r)
	h2, m2 := chk.check(closed, r)
	vals, err := chk.checkCache(env, h1+h2, m1+m2, r)
	if err != nil {
		return err
	}

	l := newLayers()
	run := map[string][]float64{}
	var queue, response, wall, segs []float64
	worst := 0.0
	for i, oc := range append(open, closed...) {
		if oc.err != nil {
			continue
		}
		jt, err := env.events(oc.id)
		if err != nil {
			r.fail("serve events: %v", err)
			continue
		}
		runMS := float64(jt.finished-jt.started) / 1e6
		run[oc.req.Kind] = append(run[oc.req.Kind], runMS)
		if i >= len(open) {
			continue // the closed loop only feeds the per-kind run times
		}
		lateMS := float64(oc.sent-oc.due) / 1e6
		q := float64(jt.started-oc.sent) / 1e6
		resp := float64(oc.got-jt.finished) / 1e6
		w := oc.latencyMS()
		queue = append(queue, q)
		response = append(response, resp)
		wall = append(wall, w)
		sum := lateMS + q + runMS + resp
		segs = append(segs, sum)
		worst = math.Max(worst, math.Abs(w-sum)/w)
		l.ops++
	}
	if worst > 0.05 {
		r.fail("serve ledger: a request's segments leave %.1f%% of its latency unattributed", 100*worst)
	}

	var p probe
	solves := 0
	counts := map[string]float64{}
	for model := range in.Models {
		for _, sparse := range []bool{false, true} {
			for _, s := range in.Sims {
				if s.Model != model || s.Req.Sparse != sparse {
					continue
				}
				rows, q, err := probeSimulate(chk.cms[model], s.Req)
				if err != nil {
					r.fail("serve solve probe: %v", err)
					break
				}
				ref, err := service.RunSimulate(chk.cms[model], s.Req, service.SimOpts{})
				if err != nil || !sameBits(rows, ref.Rows) {
					r.fail("serve solve probe: trajectory differs from service.RunSimulate (%v)", err)
				}
				p.add(q)
				solves++
				st := q.stats
				counts["ode.steps"] += float64(st.Steps)
				counts["ode.rejected_steps"] += float64(st.Rejected)
				counts["ode.newton_iters"] += float64(st.NewtonIters)
				counts["ode.fevals"] += float64(st.FEvals)
				counts["ode.jevals"] += float64(st.JEvals)
				counts["ode.factorizations"] += float64(st.Factorizations)
				counts["linalg.factor_ops"] += st.FactorOps
				counts["linalg.solve_ops"] += st.SolveOps
				break
			}
		}
	}

	hits, misses := vals["rms_service_cache_hits_total"], vals["rms_service_cache_misses_total"]-float64(len(in.Models))
	direct := map[string]float64{
		"service.queue_wait_ms":       mean(queue),
		"service.run_ms.simulate":     mean(run["simulate"]),
		"service.run_ms.compile_hit":  mean(run["compile_hit"]),
		"service.run_ms.compile_miss": mean(run["compile_miss"]),
		"service.response_ms":         mean(response),
		"service.cache_hit_ratio":     hits / (hits + misses),
		"codegen.rhs_us":              p.rhsUS(),
		"codegen.jac_us":              p.jacUS(),
		"ode.self_share":              p.selfShare(),
		"go.alloc_mb_per_op":          alloc / 1e6 / float64(len(open)),
		"go.gc_cpu_share":             (g1.gcCPU - g0.gcCPU) / math.Max(g1.totalCPU-g0.totalCPU, 1e-9),
		"trace.overhead_ms":           mean(latencies(open)) - mean(latencies(untraced)),
		"unattributed_share":          (sum(wall) - sum(segs)) / sum(wall),
	}
	for name, v := range counts {
		direct[name] = v / float64(solves)
	}
	for _, cm := range chk.cms {
		modelCounts(cm, l)
	}
	for _, name := range []string{"network.reactions", "opt.kept_ops_ratio", "codegen.jacobian_nnz"} {
		direct[name] = l.sum[name] / float64(len(chk.cms))
	}
	l.emit(r, direct)
	return nil
}

// latencies returns the latencies of the requests that succeeded.
func latencies(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.err == nil {
			xs = append(xs, o.latencyMS())
		}
	}
	return xs
}
