package introspect

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rms/internal/budget"
	"rms/internal/telemetry"
)

func testServer() (*Server, *telemetry.Registry, *telemetry.Recorder) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	s := &Server{Program: "test", Registry: reg, Recorder: rec}
	return s, reg, rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthzAndIndex(t *testing.T) {
	s, _, _ := testServer()
	h := s.Handler()
	if w := get(t, h, "/healthz"); w.Code != 200 || strings.TrimSpace(w.Body.String()) != "ok" {
		t.Fatalf("/healthz = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/"); w.Code != 200 || !strings.Contains(w.Body.String(), "/metrics") {
		t.Fatalf("index = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/nosuch"); w.Code != 404 {
		t.Fatalf("unknown path = %d, want 404", w.Code)
	}
}

// omFamily is one parsed OpenMetrics family for the validity test.
type omFamily struct {
	typ     string
	samples map[string]float64 // sample name + label string -> value
}

// parseOpenMetrics is a strict-enough parser for the exposition our
// exporter produces: TYPE lines, bare and labeled samples, and the
// mandatory # EOF terminator. It fails the test on anything malformed.
func parseOpenMetrics(t *testing.T, body string) map[string]*omFamily {
	t.Helper()
	fams := map[string]*omFamily{}
	sawEOF := false
	var cur *omFamily
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if sawEOF {
			t.Fatalf("line %d: content after # EOF: %q", ln+1, line)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			cur = &omFamily{typ: parts[3], samples: map[string]float64{}}
			fams[parts[2]] = cur
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, val, err)
		}
		if cur == nil {
			t.Fatalf("line %d: sample %q before any TYPE line", ln+1, name)
		}
		cur.samples[name] = v
	}
	if !sawEOF {
		t.Fatal("exposition missing # EOF terminator")
	}
	return fams
}

func TestMetricsOpenMetricsValid(t *testing.T) {
	s, reg, _ := testServer()
	reg.Counter("estimator.file_solves").Add(42)
	reg.Gauge("sched.imbalance").Set(1.25)
	h := reg.Histogram("ode.step_size", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}

	w := get(t, s.Handler(), "/metrics")
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type %q", ct)
	}
	fams := parseOpenMetrics(t, w.Body.String())

	c, ok := fams["rms_estimator_file_solves"]
	if !ok || c.typ != "counter" {
		t.Fatalf("counter family missing or mistyped: %+v", c)
	}
	if got := c.samples["rms_estimator_file_solves_total"]; got != 42 {
		t.Fatalf("counter sample lacks _total suffix or value: %v", c.samples)
	}
	g, ok := fams["rms_sched_imbalance"]
	if !ok || g.typ != "gauge" || g.samples["rms_sched_imbalance"] != 1.25 {
		t.Fatalf("gauge family wrong: %+v", g)
	}

	hf, ok := fams["rms_ode_step_size"]
	if !ok || hf.typ != "histogram" {
		t.Fatalf("histogram family missing: %+v", hf)
	}
	// Cumulative buckets must be non-decreasing and end at the count.
	prev := -1.0
	for _, le := range []string{"1", "10", "100", "+Inf"} {
		key := fmt.Sprintf(`rms_ode_step_size_bucket{le="%s"}`, le)
		v, ok := hf.samples[key]
		if !ok {
			t.Fatalf("missing bucket %s in %v", key, hf.samples)
		}
		if v < prev {
			t.Fatalf("bucket le=%s count %g < previous %g", le, v, prev)
		}
		prev = v
	}
	if hf.samples[`rms_ode_step_size_bucket{le="+Inf"}`] != hf.samples["rms_ode_step_size_count"] {
		t.Fatalf("+Inf bucket != _count: %v", hf.samples)
	}
	if hf.samples["rms_ode_step_size_count"] != 5 {
		t.Fatalf("_count = %g, want 5", hf.samples["rms_ode_step_size_count"])
	}
	if hf.samples["rms_ode_step_size_sum"] != 560.5 {
		t.Fatalf("_sum = %g, want 560.5", hf.samples["rms_ode_step_size_sum"])
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"estimator.file_solves": "rms_estimator_file_solves",
		"lm.lambda":             "rms_lm_lambda",
		"weird-name/x":          "rms_weird_name_x",
	} {
		if got := MetricName(in); got != want {
			t.Fatalf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestVarsEnvelopeRoundTrip(t *testing.T) {
	s, reg, rec := testServer()
	s.Budget = budget.New()
	for i := 0; i < 3; i++ {
		s.Budget.Check()
	}
	reg.Counter("a.count").Add(7)
	reg.Histogram("b.hist", []float64{1}).Observe(2) // P90 in overflow → sanitized -1
	rec.Append(telemetry.Event{Level: telemetry.LevelInfo, Scope: "t", Msg: "x"})

	w := get(t, s.Handler(), "/debug/vars")
	if w.Code != 200 {
		t.Fatalf("/debug/vars = %d: %s", w.Code, w.Body.String())
	}
	v, err := UnmarshalVars(w.Body.Bytes())
	if err != nil {
		t.Fatalf("UnmarshalVars: %v", err)
	}
	if v.Program != "test" || v.Events.Total != 1 || v.Events.Retained != 1 {
		t.Fatalf("vars payload wrong: %+v", v)
	}
	if v.Budget == nil || v.Budget.Checks != 3 || v.Budget.Exhausted {
		t.Fatalf("budget vars wrong: %+v", v.Budget)
	}
	for _, mv := range v.Metrics {
		if mv.Name == "b.hist" && mv.P90 != -1 {
			t.Fatalf("overflow P90 not sanitized: %+v", mv)
		}
	}

	// Wire conformance: unmarshal → re-marshal must be byte-identical
	// (fixed struct, no maps, sha256-stable field order).
	again, err := MarshalVars(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, w.Body.Bytes()) {
		t.Fatalf("vars envelope not canonical:\n%s\nvs\n%s", w.Body.Bytes(), again)
	}
}

func TestDebugEvents(t *testing.T) {
	s, _, rec := testServer()
	rec.Append(telemetry.Event{Level: telemetry.LevelWarn, Scope: "est", Kind: "degrade", Msg: "demoted"})
	if w := get(t, s.Handler(), "/debug/events"); !strings.Contains(w.Body.String(), "est.degrade: demoted") {
		t.Fatalf("text dump missing event:\n%s", w.Body.String())
	}
	w := get(t, s.Handler(), "/debug/events?format=json")
	var evs []telemetry.Event
	if err := json.Unmarshal(w.Body.Bytes(), &evs); err != nil || len(evs) != 1 {
		t.Fatalf("json dump: %v, %d events", err, len(evs))
	}
}

func TestTraceDisabled(t *testing.T) {
	s, _, _ := testServer()
	if w := get(t, s.Handler(), "/debug/trace"); !strings.Contains(w.Body.String(), "tracing disabled") {
		t.Fatalf("/debug/trace without tracer: %q", w.Body.String())
	}
}

// TestProgressStream drives the chunked /progress feed over a real
// listener: events appended after the stream opens must arrive, ?after
// resumes, and ?min filters.
func TestProgressStream(t *testing.T) {
	s, _, rec := testServer()
	s.Budget = budget.New()
	s.pollInterval = 5 * time.Millisecond
	s.heartbeatInterval = time.Hour // only the initial heartbeat
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec.Append(telemetry.Event{Level: telemetry.LevelDebug, Scope: "x", Msg: "noise"})
	rec.Append(telemetry.Event{Level: telemetry.LevelInfo, Scope: "lm", Kind: "iter", Msg: "iteration"})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET",
		"http://"+addr+"/progress?after=1&min=info", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	// Late event: appended while the stream is live.
	go func() {
		time.Sleep(20 * time.Millisecond)
		rec.Append(telemetry.Event{Level: telemetry.LevelWarn, Scope: "est", Kind: "recovery", Msg: "late"})
	}()

	sc := bufio.NewScanner(resp.Body)
	var sawBudget, sawIter, sawLate, sawNoise bool
	for sc.Scan() && !(sawBudget && sawIter && sawLate) {
		var line progressLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Budget != nil:
			sawBudget = true
		case line.Event != nil && line.Event.Msg == "iteration":
			sawIter = true
		case line.Event != nil && line.Event.Msg == "late":
			sawLate = true
		case line.Event != nil && line.Event.Msg == "noise":
			sawNoise = true
		}
	}
	if !sawBudget || !sawIter || !sawLate {
		t.Fatalf("stream missing lines: budget=%v iter=%v late=%v (scan err %v)",
			sawBudget, sawIter, sawLate, sc.Err())
	}
	if sawNoise {
		t.Fatal("?after=1&min=info leaked the debug event with seq 1")
	}
}

// TestServerNilInstruments serves every endpoint with zero instruments —
// the degraded configuration must answer, not panic.
func TestServerNilInstruments(t *testing.T) {
	s := &Server{Program: "bare"}
	h := s.Handler()
	for _, path := range []string{"/", "/healthz", "/metrics", "/debug/vars", "/debug/trace", "/debug/events"} {
		if w := get(t, h, path); w.Code != 200 {
			t.Fatalf("%s = %d with nil instruments", path, w.Code)
		}
	}
	fams := parseOpenMetrics(t, get(t, h, "/metrics").Body.String())
	if len(fams) != 0 {
		t.Fatalf("empty registry exposed families: %v", fams)
	}
}
