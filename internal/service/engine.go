package service

import (
	"fmt"
	"sync"

	"rms/internal/core"
	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// CompiledModel is one cache entry: every per-model artifact that can
// be shared across requests. The compiled tape and Jacobian programs
// are immutable; requests instantiate private evaluators over them.
// The symbolic LU is shared through SparseLU.Fork — one ordering and
// fill analysis, private numeric storage per solve.
type CompiledModel struct {
	// ID is the content address (ModelSpec.CacheKey).
	ID string
	// Spec is the normalized input that produced the model.
	Spec ModelSpec
	// Res holds the full compilation output.
	Res *core.Result
	// Pattern is the Jacobian sparsity pattern (nil when the model has
	// no compiled Jacobian).
	Pattern *linalg.CSR
	// LU is the one-time symbolic factorization of Pattern, forked per
	// solve (nil when the pattern is unusable for pivot-free LU).
	LU *linalg.SparseLU
}

// ModelInfo is the JSON-facing summary of a compiled model.
type ModelInfo struct {
	ID       string   `json:"id"`
	Cached   bool     `json:"cached"`
	Species  []string `json:"species"`
	Rates    []string `json:"rates"`
	Report   string   `json:"report"`
	Kind     string   `json:"kind"`
	Optimize string   `json:"optimize"`
}

// Info summarizes the model; cached reports whether this request was
// served from the cache.
func (m *CompiledModel) Info(cached bool) ModelInfo {
	return ModelInfo{
		ID: m.ID, Cached: cached,
		Species: m.Res.System.Species, Rates: m.Res.System.Rates,
		Report: m.Res.Report().String(),
		Kind:   m.Spec.Kind, Optimize: m.Spec.Optimize,
	}
}

// flight is one in-progress compilation; latecomers for the same key
// block on done instead of compiling again.
type flight struct {
	done chan struct{}
	cm   *CompiledModel
	err  error
}

// Engine is the compile-once layer: a content-addressed cache of
// compiled models with singleflight deduplication, shared by the CLIs
// and the rmsd server. The zero value is not usable; construct with
// NewEngine. All methods are safe for concurrent use.
type Engine struct {
	mu       sync.Mutex
	models   map[string]*CompiledModel
	inflight map[string]*flight

	hits, misses, compilations *telemetry.Counter
	log                        *telemetry.Logger
}

// NewEngine builds an engine. reg (nil-safe) receives the cache
// counters service.cache_hits, service.cache_misses and
// service.compilations; log (nil-safe) records compile events.
func NewEngine(reg *telemetry.Registry, log *telemetry.Logger) *Engine {
	return &Engine{
		models:       make(map[string]*CompiledModel),
		inflight:     make(map[string]*flight),
		hits:         reg.Counter("service.cache_hits"),
		misses:       reg.Counter("service.cache_misses"),
		compilations: reg.Counter("service.compilations"),
		log:          log.Scope("service"),
	}
}

// Model returns a cached model by ID.
func (e *Engine) Model(id string) (*CompiledModel, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cm, ok := e.models[id]
	return cm, ok
}

// Models returns the number of cached models.
func (e *Engine) Models() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.models)
}

// Compile returns the compiled model for spec, compiling at most once
// per cache key: concurrent calls with the same key coalesce onto one
// compilation (singleflight), later calls hit the cache. cached
// reports whether this call reused an existing or in-flight
// compilation. lane (nil-safe) receives the compiler phase spans of an
// actual compilation; joined and cached calls record nothing.
func (e *Engine) Compile(spec ModelSpec, lane *telemetry.Lane) (cm *CompiledModel, cached bool, err error) {
	if err := spec.normalize(); err != nil {
		return nil, false, err
	}
	key := spec.CacheKey()

	e.mu.Lock()
	if cm, ok := e.models[key]; ok {
		e.mu.Unlock()
		e.hits.Inc()
		return cm, true, nil
	}
	if fl, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		e.hits.Inc()
		return fl.cm, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	e.inflight[key] = fl
	e.mu.Unlock()

	e.misses.Inc()
	fl.cm, fl.err = e.build(spec, key, lane)

	e.mu.Lock()
	delete(e.inflight, key)
	if fl.err == nil {
		e.models[key] = fl.cm
	}
	e.mu.Unlock()
	close(fl.done)

	if fl.err != nil {
		return nil, false, fl.err
	}
	e.compilations.Inc()
	e.log.Info("compile", "model compiled", "id", key[:12], "kind", spec.Kind)
	return fl.cm, false, nil
}

// BuildUncached compiles the spec without consulting or populating the
// cache — the /v1/verify endpoint uses it to cross-check a cached
// model against a fresh compilation.
func (e *Engine) BuildUncached(spec ModelSpec) (*CompiledModel, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	return e.build(spec, spec.CacheKey(), nil)
}

// build runs the actual compilation for a normalized spec.
func (e *Engine) build(spec ModelSpec, key string, lane *telemetry.Lane) (*CompiledModel, error) {
	level, err := opt.ParseLevel(spec.Optimize)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Optimize: level, RCIP: spec.RCIP, AnalyticJacobian: true, Trace: lane}
	var res *core.Result
	switch spec.Kind {
	case KindRDL:
		res, err = core.CompileRDL(spec.Source, cfg)
	case KindNet:
		var net *network.Network
		net, err = network.ParseText(spec.Source)
		if err == nil {
			res, err = core.CompileNetwork(net, cfg)
		}
	case KindVulcan:
		var net *network.Network
		net, err = vulcan.Network(spec.Variants)
		if err == nil {
			res, err = core.CompileNetwork(net, cfg)
		}
	default:
		err = fmt.Errorf("service: unknown model kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	cm := &CompiledModel{ID: key, Spec: spec, Res: res}
	if res.Jacobian != nil {
		cm.Pattern = res.Jacobian.PatternCSR()
		// A pattern missing a diagonal entry cannot be factored without
		// pivoting; solvers then fall back to dense LU, so a nil LU is
		// not an error.
		if lu, err := linalg.NewSparseLU(cm.Pattern); err == nil {
			cm.LU = lu
		}
	}
	return cm, nil
}
