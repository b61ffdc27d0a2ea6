package service

import (
	"fmt"

	"rms/internal/budget"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/sched"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// DataFile is one experimental data file on the wire: parallel time
// and value arrays (dataset.File flattened for JSON).
type DataFile struct {
	Name string    `json:"name"`
	T    []float64 `json:"t"`
	V    []float64 `json:"v"`
}

// toDataset converts wire files to estimator inputs.
func toDataset(in []DataFile) ([]*dataset.File, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("service: fit needs at least one data file")
	}
	files := make([]*dataset.File, len(in))
	for i, df := range in {
		if len(df.T) != len(df.V) {
			return nil, fmt.Errorf("service: data file %q: %d times vs %d values", df.Name, len(df.T), len(df.V))
		}
		if len(df.T) == 0 {
			return nil, fmt.Errorf("service: data file %q is empty", df.Name)
		}
		f := &dataset.File{Name: df.Name}
		for j := range df.T {
			f.Records = append(f.Records, dataset.Record{T: df.T[j], Value: df.V[j]})
		}
		files[i] = f
	}
	return files, nil
}

// FromDataset converts estimator inputs to wire files — the CLI path
// through RunFit and the rmsctl client both use it.
func FromDataset(files []*dataset.File) []DataFile {
	out := make([]DataFile, len(files))
	for i, f := range files {
		df := DataFile{Name: f.Name}
		for _, r := range f.Records {
			df.T = append(df.T, r.T)
			df.V = append(df.V, r.Value)
		}
		out[i] = df
	}
	return out
}

// FitRequest is one parameter-estimation request against a compiled
// model.
type FitRequest struct {
	// Model / Spec select the model like SimulateRequest.
	Model string     `json:"model,omitempty"`
	Spec  *ModelSpec `json:"spec,omitempty"`

	// Data are the experimental files to fit against.
	Data []DataFile `json:"data"`
	// Property maps the state vector to the measured property: "sum"
	// (default, the conformance harness's property) or "crosslink"
	// (the vulcanization crosslink density).
	Property string `json:"property,omitempty"`
	// RTol and ATol are the solver tolerances (defaults 1e-9 / 1e-12,
	// the rmsrun values).
	RTol float64 `json:"rtol,omitempty"`
	ATol float64 `json:"atol,omitempty"`

	// Parallel-runtime shape (estimator.Config). LoadBalance is the
	// paper's dynamic load balancer, sched policy "lpt"; without it,
	// files are dealt to ranks in Fig. 9's contiguous blocks.
	Ranks       int  `json:"ranks,omitempty"` // default 1
	LoadBalance bool `json:"lb,omitempty"`

	// Optimizer shape (nlopt.Options); zero fields take the nlopt
	// defaults.
	MaxIter int     `json:"maxiter,omitempty"`
	Tol     float64 `json:"tol,omitempty"`
	RelStep float64 `json:"relstep,omitempty"`

	// Start, Lower and Upper are the aligned bound vectors over the
	// model's rate constants (Res.System.Rates order). All three are
	// required and must have the rate-constant count.
	Start []float64 `json:"start"`
	Lower []float64 `json:"lower"`
	Upper []float64 `json:"upper"`
}

// FitResult is the JSON-facing fit outcome.
type FitResult struct {
	Model      string    `json:"model"`
	Rates      []string  `json:"rates"`
	X          []float64 `json:"x"`
	RNorm      float64   `json:"rnorm"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Calls      int       `json:"calls"`
	WallSecs   float64   `json:"wall_seconds"`
	// Stopped carries the budget error of a run that ended early; the
	// X/RNorm fields then hold the best point reached. Checkpoint is
	// the server-side resume file, when one was written.
	Stopped    string `json:"stopped,omitempty"`
	Checkpoint string `json:"checkpoint,omitempty"`
}

// FitOpts carries the per-request environment for RunFit. All fields
// are optional.
type FitOpts struct {
	Budget   *budget.Budget
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry
	Log      *telemetry.Logger
	// Observer receives one event per LM iteration (see ObserveLM).
	Observer func(nlopt.IterEvent)
	// Checkpoint, when non-nil, is called at every LM iteration
	// boundary with the optimizer state and the live estimator (for
	// est.Snapshot()); an error aborts the fit.
	Checkpoint func(cs nlopt.CheckState, est *estimator.Estimator) error
	// Resume restarts the fit from a saved run state: the estimator is
	// restored and the optimizer continues from the recorded iteration.
	Resume *RunState
}

// RunKind tags a full-fit checkpoint (RunState) in the checkpoint
// envelope.
const RunKind = "rms-run"

// RunState is everything a parameter fit needs to resume bit-identically
// from an outer-iteration boundary: the optimizer's {x, lambda,
// iteration} and the estimator's scheduling, accounting and degradation
// state. Save and load it with checkpoint.Save and checkpoint.Load under
// RunKind. Run checkpoints written while fault plans were snapshotted
// also carry a faults key, which decoding skips.
type RunState struct {
	Opt nlopt.CheckState `json:"opt"`
	Est estimator.State  `json:"est"`
}

// FitOutcome is the full-fidelity outcome for in-process callers: the
// optimizer result plus the live estimator (for Analyze, Calls and
// runtime accounting). HTTP callers receive the FitResult projection.
type FitOutcome struct {
	Fit   *nlopt.Result
	Est   *estimator.Estimator
	Rates []string
}

// Result projects the outcome onto the wire type.
func (o *FitOutcome) Result(modelID string) FitResult {
	return FitResult{
		Model: modelID, Rates: o.Rates,
		X: o.Fit.X, RNorm: o.Fit.RNorm,
		Iterations: o.Fit.Iterations, Converged: o.Fit.Converged,
		Calls: o.Est.Calls(), WallSecs: o.Est.WallSeconds(),
	}
}

// ObserveLM publishes per-iteration optimizer telemetry into reg
// (nil-safe) and mirrors each iteration into log's flight recorder —
// the shared wiring behind rmsrun and the rmsd job runner, and what
// the /progress and per-job event streams show.
func ObserveLM(reg *telemetry.Registry, log *telemetry.Logger) func(nlopt.IterEvent) {
	iters := reg.Counter("lm.iterations")
	trials := reg.Counter("lm.trials")
	nonFinite := reg.Counter("lm.nonfinite_trials")
	accepted := reg.Counter("lm.accepted_iters")
	lambda := reg.Gauge("lm.lambda")
	rnorm := reg.Gauge("lm.rnorm")
	freeVars := reg.Gauge("lm.free_vars")
	return func(ev nlopt.IterEvent) {
		iters.Inc()
		trials.Add(int64(ev.Trials))
		nonFinite.Add(int64(ev.NonFiniteTrials))
		if ev.Improved {
			accepted.Inc()
		}
		lambda.Set(ev.Lambda)
		rnorm.Set(ev.RNorm)
		freeVars.Set(float64(ev.FreeVars))
		log.Info("iter", "LM iteration",
			"iter", ev.Iter, "rnorm", ev.RNorm, "lambda", ev.Lambda,
			"improved", fmt.Sprint(ev.Improved), "trials", ev.Trials)
	}
}

// property resolves the named property function.
func property(cm *CompiledModel, name string) (func(y []float64) float64, error) {
	switch name {
	case "", "sum":
		return func(y []float64) float64 {
			s := 0.0
			for _, v := range y {
				s += v
			}
			return s
		}, nil
	case "crosslink":
		return vulcan.CrosslinkProperty(cm.Res.System), nil
	}
	return nil, fmt.Errorf("service: unknown property %q (sum|crosslink)", name)
}

// estConfig resolves the request's parallel-runtime shape to a validated
// estimator config; the handler runs it before queueing, so a shape the
// estimator cannot honour is the client's 400, not a failed job.
func (req *FitRequest) estConfig() (estimator.Config, error) {
	cfg := estimator.Config{Ranks: req.Ranks}
	if cfg.Ranks == 0 {
		cfg.Ranks = 1
	}
	if req.LoadBalance {
		cfg.Policy = sched.PolicyLPT
	}
	return cfg, cfg.Validate()
}

// RunFit fits the model's rate constants to the request's data. It is
// the single estimation code path: rmsrun wraps it with table output
// and checkpoint files, the rmsd job runner with JSON results.
//
// Like the underlying optimizer, a budget-stopped fit returns BOTH a
// well-formed partial outcome (best point reached) and the budget's
// error, so callers can checkpoint before unwinding.
func RunFit(cm *CompiledModel, req FitRequest, fo FitOpts) (*FitOutcome, error) {
	files, err := toDataset(req.Data)
	if err != nil {
		return nil, err
	}
	prop, err := property(cm, req.Property)
	if err != nil {
		return nil, err
	}
	ecfg, err := req.estConfig()
	if err != nil {
		return nil, err
	}
	n := len(cm.Res.System.Rates)
	for _, b := range []struct {
		name string
		v    []float64
	}{{"start", req.Start}, {"lower", req.Lower}, {"upper", req.Upper}} {
		if len(b.v) != n {
			return nil, fmt.Errorf("service: %s has %d entries, model has %d rate constants", b.name, len(b.v), n)
		}
	}
	if req.RTol == 0 {
		req.RTol = 1e-9
	}
	if req.ATol == 0 {
		req.ATol = 1e-12
	}

	model := cm.Res.Model(prop, ode.Options{RTol: req.RTol, ATol: req.ATol})
	// Share the cached symbolic factorization: solves fork it instead
	// of re-running the ordering and fill analysis per request.
	model.SymbolicLU = cm.LU
	ecfg.Trace, ecfg.Metrics, ecfg.Budget, ecfg.Log = fo.Tracer, fo.Registry, fo.Budget, fo.Log
	est, err := estimator.New(model, files, ecfg)
	if err != nil {
		return nil, err
	}

	lmOpts := nlopt.Options{
		MaxIter: req.MaxIter, Tol: req.Tol, RelStep: req.RelStep,
		KeepJacobian: true, Observer: fo.Observer,
	}
	if fo.Checkpoint != nil {
		lmOpts.Checkpoint = func(cs nlopt.CheckState) error {
			return fo.Checkpoint(cs, est)
		}
	}
	if fo.Resume != nil {
		if err := est.Restore(fo.Resume.Est); err != nil {
			est.Close()
			return nil, err
		}
		lmOpts.Resume = &fo.Resume.Opt
	}
	fit, err := est.Estimate(req.Start, req.Lower, req.Upper, lmOpts)
	out := &FitOutcome{Fit: fit, Est: est, Rates: cm.Res.System.Rates}
	if err != nil {
		if budget.Exhausted(err) && fit != nil {
			return out, err
		}
		est.Close()
		return nil, err
	}
	return out, nil
}
