package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"rms/internal/budget"
	"rms/internal/checkpoint"
	"rms/internal/estimator"
	"rms/internal/introspect"
	"rms/internal/nlopt"
	"rms/internal/telemetry"
)

// maxBodyBytes bounds request bodies (RDL sources and data files are
// text; 8 MiB is generous).
const maxBodyBytes = 8 << 20

// Config shapes a Server. Zero values take the documented defaults.
type Config struct {
	// Program names the server in the introspection index (default
	// "rmsd").
	Program string
	// Engine is the compiled-model cache; nil constructs a fresh one
	// over Registry and Log.
	Engine *Engine
	// QueueCap bounds the admission queue (default 16); Workers the
	// concurrent job executors (default 2).
	QueueCap, Workers int
	// Drain is the graceful-shutdown deadline: how long in-flight jobs
	// may run before their budgets are cancelled (default 5s).
	Drain time.Duration
	// CheckpointDir, when non-empty, receives <job-id>.ckpt resume
	// files for fit jobs — written at every LM iteration boundary, so
	// a drained-past-deadline fit stays resumable.
	CheckpointDir string
	// Registry/Tracer/Recorder/Log are the process-wide instruments
	// (all nil-safe); Recorder and Registry also feed the mounted
	// introspection endpoints.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Recorder *telemetry.Recorder
	Log      *telemetry.Logger
	// Budget is the server-wide budget shown by /debug/vars; job
	// budgets are parented under it so cancelling it stops everything.
	Budget *budget.Budget
}

// Server is the rmsd HTTP layer: the /v1 JSON API over the job queue
// and engine, plus the introspection endpoints on the same mux.
type Server struct {
	cfg Config
	eng *Engine
	q   *Queue
	log *telemetry.Logger

	httpSrv *http.Server
	ln      net.Listener
	// pollInterval paces the job event stream (tests shorten it).
	pollInterval time.Duration
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Program == "" {
		cfg.Program = "rmsd"
	}
	if cfg.Drain == 0 {
		cfg.Drain = 5 * time.Second
	}
	eng := cfg.Engine
	if eng == nil {
		eng = NewEngine(cfg.Registry, cfg.Log)
	}
	q := NewQueue(cfg.QueueCap, cfg.Workers)
	q.parent = cfg.Budget
	return &Server{
		cfg: cfg, eng: eng,
		q:            q,
		log:          cfg.Log.Scope("rmsd"),
		pollInterval: 50 * time.Millisecond,
	}
}

// Engine returns the server's compiled-model cache.
func (s *Server) Engine() *Engine { return s.eng }

// Queue returns the server's job queue.
func (s *Server) Queue() *Queue { return s.q }

// Handler builds the full mux: the /v1 API plus the introspection
// endpoints (/healthz, /metrics, /debug/*, /progress).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models", s.handleCompile)
	mux.HandleFunc("GET /v1/models/{id}", s.handleModel)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/fit", s.handleFit)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	dbg := &introspect.Server{Program: s.cfg.Program, Registry: s.cfg.Registry,
		Tracer: s.cfg.Tracer, Recorder: s.cfg.Recorder, Budget: s.cfg.Budget}
	dbg.Register(mux)
	return mux
}

// Start listens on addr (host:port; port 0 picks a free one) and
// serves in the background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: stop admitting, give in-flight jobs up
// to drain (0 = Config.Drain), cancel stragglers' budgets, then close
// the listener. Returns true when every job finished inside the
// deadline.
func (s *Server) Shutdown(drain time.Duration) bool {
	if drain == 0 {
		drain = s.cfg.Drain
	}
	s.log.Info("shutdown", "draining", "deadline", drain.String())
	ok := s.q.Shutdown(drain)
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.log.Info("shutdown", "drained", "clean", fmt.Sprint(ok))
	return ok
}

// --- plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// decode reads a bounded JSON body into v; any syntax or type error is
// the client's (400).
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// submit queues a job and answers: async submits return 202 with a
// Location header; ?wait=1 blocks for the result. A full queue is 429
// with Retry-After, a draining server 503.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, deadline time.Duration, run func(j *Job) (any, error)) {
	j, err := s.q.Submit(kind, deadline, run)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		<-j.Done()
		writeJSON(w, http.StatusOK, j.View())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.View())
}

// resolve finds the request's model: by ID, or by compiling (or
// cache-hitting) an inline spec.
func (s *Server) resolve(id string, spec *ModelSpec) (*CompiledModel, error) {
	switch {
	case id != "" && spec != nil:
		return nil, fmt.Errorf("service: give either model or spec, not both")
	case id != "":
		cm, ok := s.eng.Model(id)
		if !ok {
			return nil, fmt.Errorf("service: unknown model %q", id)
		}
		return cm, nil
	case spec != nil:
		cm, _, err := s.eng.Compile(*spec, nil)
		return cm, err
	}
	return nil, fmt.Errorf("service: request needs a model id or an inline spec")
}

// --- handlers ---

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var spec ModelSpec
	if !decode(w, r, &spec) {
		return
	}
	s.submit(w, r, "compile", 0, func(j *Job) (any, error) {
		cm, cached, err := s.eng.Compile(spec, nil)
		if err != nil {
			return nil, err
		}
		j.Log().Info("compile", "model ready", "id", cm.ID[:12], "cached", fmt.Sprint(cached))
		return cm.Info(cached), nil
	})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	cm, ok := s.eng.Model(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown model"))
		return
	}
	writeJSON(w, http.StatusOK, cm.Info(true))
}

// wireDeadline is the shared per-job deadline field.
func wireDeadline(ms int64) time.Duration {
	if ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// simulateWire adds the job deadline to the engine request.
type simulateWire struct {
	SimulateRequest
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateWire
	if !decode(w, r, &req) {
		return
	}
	s.submit(w, r, "simulate", wireDeadline(req.DeadlineMS), func(j *Job) (any, error) {
		cm, err := s.resolve(req.Model, req.Spec)
		if err != nil {
			return nil, err
		}
		res, err := RunSimulate(cm, req.SimulateRequest, SimOpts{
			Budget: j.Budget(), Registry: s.cfg.Registry, Log: j.Log().Scope("ode"),
			Row: func(row int, t float64, _ []float64) error {
				j.Log().Debug("row", "output row", "row", row, "t", t)
				return nil
			},
		})
		// A budget-stopped simulate still carries its partial rows.
		if err != nil && res == nil {
			return nil, err
		}
		return res, err
	})
}

type fitWire struct {
	FitRequest
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req fitWire
	if !decode(w, r, &req) {
		return
	}
	if _, err := req.estConfig(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, "fit", wireDeadline(req.DeadlineMS), func(j *Job) (any, error) {
		cm, err := s.resolve(req.Model, req.Spec)
		if err != nil {
			return nil, err
		}
		fo := FitOpts{
			Budget: j.Budget(), Registry: s.cfg.Registry, Log: j.Log(),
			Observer: ObserveLM(s.cfg.Registry, j.Log().Scope("lm")),
		}
		ckptPath := ""
		if s.cfg.CheckpointDir != "" {
			ckptPath = filepath.Join(s.cfg.CheckpointDir, j.ID+".ckpt")
			fo.Checkpoint = func(cs nlopt.CheckState, est *estimator.Estimator) error {
				return checkpoint.Save(ckptPath, RunKind, RunState{
					Opt: cs, Est: est.Snapshot(),
				})
			}
		}
		out, err := RunFit(cm, req.FitRequest, fo)
		if err != nil && out == nil {
			return nil, err
		}
		defer out.Est.Close()
		res := out.Result(cm.ID)
		if err != nil {
			// Budget trip: report the partial fit and where to resume.
			res.Stopped = err.Error()
			res.Checkpoint = ckptPath
			return res, err
		}
		return res, nil
	})
}

// VerifyRequest cross-checks the cache: the spec is compiled twice —
// through the cache and fresh — and a short trajectory from each must
// agree bit-for-bit. A divergence would mean cached artifacts alter
// numerics, which the content-addressed design promises they never do.
type VerifyRequest struct {
	Spec       ModelSpec          `json:"spec"`
	TEnd       float64            `json:"tend,omitempty"`   // default 0.1
	Points     int                `json:"points,omitempty"` // default 5
	Rates      map[string]float64 `json:"rates,omitempty"`
	DeadlineMS int64              `json:"deadline_ms,omitempty"`
}

// VerifyResult reports the cross-check.
type VerifyResult struct {
	Model      string `json:"model"`
	OK         bool   `json:"ok"`
	Rows       int    `json:"rows"`
	Checks     int    `json:"checks"`
	Mismatches int    `json:"mismatches"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decode(w, r, &req) {
		return
	}
	if req.TEnd == 0 {
		req.TEnd = 0.1
	}
	if req.Points == 0 {
		req.Points = 5
	}
	s.submit(w, r, "verify", wireDeadline(req.DeadlineMS), func(j *Job) (any, error) {
		cached, _, err := s.eng.Compile(req.Spec, nil)
		if err != nil {
			return nil, err
		}
		fresh, err := s.eng.BuildUncached(req.Spec)
		if err != nil {
			return nil, err
		}
		sim := SimulateRequest{TEnd: req.TEnd, Points: req.Points, Rates: req.Rates}
		so := SimOpts{Budget: j.Budget(), Log: j.Log().Scope("ode")}
		a, err := RunSimulate(cached, sim, so)
		if err != nil {
			return nil, err
		}
		b, err := RunSimulate(fresh, sim, so)
		if err != nil {
			return nil, err
		}
		out := VerifyResult{Model: cached.ID, Rows: len(a.Rows)}
		for ri := range a.Rows {
			for ci := range a.Rows[ri] {
				out.Checks++
				if math.Float64bits(a.Rows[ri][ci]) != math.Float64bits(b.Rows[ri][ci]) {
					out.Mismatches++
				}
			}
		}
		out.OK = out.Mismatches == 0 && len(a.Rows) == len(b.Rows)
		if !out.OK {
			j.Log().Error("verify", "cache divergence", "mismatches", out.Mismatches)
		}
		return out, nil
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.q.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.q.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleJobEvents streams the job's flight recorder as ndjson: one
// telemetry event per line, flushed as they arrive, ending when the
// job reaches a terminal state. ?after=N resumes past a cursor.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.q.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job"))
		return
	}
	after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs := j.Recorder().Since(after)
		for _, ev := range evs {
			enc.Encode(ev)
			after = ev.Seq
		}
		if fl != nil {
			fl.Flush()
		}
		if j.terminal() {
			// One final drain already happened above; anything appended
			// strictly after a terminal state is unreachable.
			if len(j.Recorder().Since(after)) == 0 {
				return
			}
			continue
		}
		select {
		case <-j.Done():
		case <-time.After(s.pollInterval):
		case <-r.Context().Done():
			return
		}
	}
}
