// Package introspect is the live debug server over the telemetry layer:
// a stdlib net/http server that exposes the metrics registry in
// OpenMetrics text format, the flight recorder, the span tree, a
// checkpoint-enveloped process snapshot, and a streaming progress feed —
// the runtime visibility the ROADMAP's service layer will mount
// directly. It is opt-in (-listen on the rms tools) and read-only: no
// endpoint mutates the run.
//
// Endpoints:
//
//	/            index
//	/healthz     liveness probe ("ok")
//	/metrics     OpenMetrics/Prometheus text exposition of the registry
//	/debug/vars  checkpoint-enveloped JSON snapshot (sha256-verifiable)
//	/debug/trace current span-tree summary (needs -trace)
//	/debug/events flight-recorder dump (text, ?format=json for JSON)
//	/progress    streaming JSON lines: one per new flight-recorder event
//	             (LM iterations, solves, replans, degradations) plus
//	             periodic budget heartbeats; ?after=N resumes from a
//	             sequence number, ?min=LEVEL filters by severity
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"rms/internal/budget"
	"rms/internal/telemetry"
)

// Server serves the introspection endpoints over one run's instruments.
// All fields are optional: a nil Registry serves an empty metrics page,
// a nil Tracer reports tracing disabled, a nil Recorder streams nothing.
type Server struct {
	// Program names the process in /debug/vars and the index page.
	Program  string
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Recorder *telemetry.Recorder
	// Budget, when non-nil, adds budget heartbeats (checks served, trip
	// state) to /progress and the same state to /debug/vars.
	Budget *budget.Budget

	// pollInterval is the /progress recorder poll period (default 100ms);
	// heartbeatInterval is the budget-heartbeat period (default 1s). Only
	// tests set them.
	pollInterval      time.Duration
	heartbeatInterval time.Duration

	start int64 // telemetry clock at Start, for uptime
	ln    net.Listener
	srv   *http.Server
}

// Start binds addr (host:port; ":0" picks a free port) and serves in the
// background. It returns the bound address, so callers can print the
// resolved port. Call Close to stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	s.start = telemetry.Now()
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server immediately, including in-flight /progress
// streams.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Handler returns the endpoint mux (also used directly by tests, without
// a listener).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	s.Register(mux)
	return mux
}

// Register mounts the introspection endpoints (everything but the index
// page) on an externally-owned mux — how the service layer serves them
// beside its job API on one listener.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/events", s.handleEvents)
	mux.HandleFunc("/progress", s.handleProgress)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s debug server\n\n", s.Program)
	fmt.Fprint(w, "/healthz       liveness\n")
	fmt.Fprint(w, "/metrics       OpenMetrics exposition\n")
	fmt.Fprint(w, "/debug/vars    checkpoint-enveloped JSON snapshot\n")
	fmt.Fprint(w, "/debug/trace   span-tree summary\n")
	fmt.Fprint(w, "/debug/events  flight-recorder dump (?format=json)\n")
	fmt.Fprint(w, "/progress      streaming event feed (?after=N&min=LEVEL)\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// openMetricsContentType is the content type the OpenMetrics spec
// mandates for the text exposition format.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", openMetricsContentType)
	WriteOpenMetrics(w, s.Registry.Snapshot())
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	data, err := MarshalVars(s.Vars())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Tracer == nil {
		fmt.Fprintln(w, "tracing disabled (run with -trace FILE to arm the span tracer)")
		return
	}
	s.Tracer.WriteSummary(w)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		s.Recorder.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.Recorder.WriteText(w)
}

// progressLine is one /progress stream entry: either an event from the
// flight recorder or a synthesized budget heartbeat.
type progressLine struct {
	Event  *telemetry.Event `json:"event,omitempty"`
	Budget *BudgetVars      `json:"budget,omitempty"`
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	q := r.URL.Query()
	after := uint64(0)
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad after="+v, http.StatusBadRequest)
			return
		}
		after = n
	}
	min := telemetry.LevelDebug
	if v := q.Get("min"); v != "" {
		lv, err := telemetry.ParseLevel(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		min = lv
	}
	poll := s.pollInterval
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	heartbeat := s.heartbeatInterval
	if heartbeat <= 0 {
		heartbeat = time.Second
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	enc := json.NewEncoder(w)
	emitBudget := func() {
		if s.Budget == nil {
			return
		}
		bv := budgetVars(s.Budget)
		enc.Encode(progressLine{Budget: &bv})
	}
	emitBudget()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	lastBeat := time.Now()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		evs := s.Recorder.Since(after)
		for i := range evs {
			after = evs[i].Seq
			if evs[i].Level < min {
				continue
			}
			enc.Encode(progressLine{Event: &evs[i]})
		}
		if time.Since(lastBeat) >= heartbeat {
			emitBudget()
			lastBeat = time.Now()
		}
		flusher.Flush()
	}
}
