// Package core wires the Reaction Modeling Suite's components into the
// end-to-end pipeline of the paper's Fig. 2: RDL source → chemical
// compiler (reaction network) → rate-constant information processor →
// equation generator → algebraic optimizer + CSE → code generation →
// parallel parameter estimator.
package core

import (
	"fmt"

	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/eqgen"
	"rms/internal/estimator"
	"rms/internal/network"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/rcip"
	"rms/internal/rdl"
	"rms/internal/telemetry"
)

// Result bundles every artifact of one chemical compilation.
type Result struct {
	// Source is the parsed RDL program (nil when compiling a prebuilt
	// network).
	Source *rdl.Program
	// Rates is the processed rate-constant table (nil without RCIP
	// input).
	Rates *rcip.Table
	// Network is the generated reaction network.
	Network *network.Network
	// System is the ODE system.
	System *eqgen.System
	// Optimized is the optimizer output.
	Optimized *opt.Optimized
	// Tape is the executable program.
	Tape *codegen.Program
	// Jacobian is the compiled symbolic Jacobian (nil unless requested).
	Jacobian *codegen.JacobianProgram
	// C is the generated C source (the paper's output artifact).
	C string
}

// Config controls a compilation.
type Config struct {
	// Optimize selects the optimizer level (opt.Full() for production;
	// the zero value is the unoptimized baseline).
	Optimize opt.Level
	// RCIP is optional rate-constant information source text.
	RCIP string
	// FuncName names the emitted C function (default "ode_fcn").
	FuncName string
	// AnalyticJacobian additionally differentiates the system
	// symbolically and compiles the Jacobian entries (Result.Jacobian);
	// the estimator's stiff solver then uses exact Jacobians.
	AnalyticJacobian bool
	// Trace, when non-nil, records one span per compiler phase (parse,
	// network generation, RCIP, equation generation, optimization, code
	// generation, C emission, Jacobian compilation) on the lane.
	Trace *telemetry.Lane
}

// CompileRDL runs the whole front half of the pipeline on RDL source.
func CompileRDL(src string, cfg Config) (*Result, error) {
	cfg.Trace.Begin("parse")
	prog, err := rdl.Parse(src)
	cfg.Trace.End()
	if err != nil {
		return nil, err
	}
	cfg.Trace.Begin("network generation")
	net, err := network.Generate(prog)
	cfg.Trace.End()
	if err != nil {
		return nil, err
	}
	res, err := CompileNetwork(net, cfg)
	if err != nil {
		return nil, err
	}
	res.Source = prog
	return res, nil
}

// CompileNetwork compiles a prebuilt reaction network (the path the
// large-scale benchmark generators use).
func CompileNetwork(net *network.Network, cfg Config) (*Result, error) {
	res := &Result{Network: net}
	if cfg.RCIP != "" {
		cfg.Trace.Begin("rcip")
		tab, err := rcip.Parse(cfg.RCIP)
		if err != nil {
			cfg.Trace.End()
			return nil, err
		}
		tab.Apply(net)
		cfg.Trace.End()
		res.Rates = tab
	}
	cfg.Trace.Begin("equation generation")
	res.System = eqgen.FromNetwork(net)
	cfg.Trace.End()
	cfg.Trace.Begin("optimize")
	z := opt.Optimize(res.System, cfg.Optimize)
	cfg.Trace.End()
	res.Optimized = z
	cfg.Trace.Begin("codegen")
	tape, err := codegen.Compile(z)
	cfg.Trace.End()
	if err != nil {
		return nil, err
	}
	res.Tape = tape
	name := cfg.FuncName
	if name == "" {
		name = "ode_fcn"
	}
	cfg.Trace.Begin("emit C")
	res.C = codegen.EmitC(z, name)
	cfg.Trace.End()
	if cfg.AnalyticJacobian {
		cfg.Trace.Begin("jacobian compilation")
		jp, err := codegen.CompileJacobian(res.System, cfg.Optimize)
		cfg.Trace.End()
		if err != nil {
			return nil, fmt.Errorf("core: jacobian: %w", err)
		}
		res.Jacobian = jp
	}
	return res, nil
}

// Model builds a parameter-estimation model from the compiled system.
// property maps the state vector to the measured property.
func (r *Result) Model(property func(y []float64) float64, solver ode.Options) *estimator.Model {
	return &estimator.Model{
		Prog:        r.Tape,
		Y0:          r.System.Y0,
		Property:    property,
		SolverOpts:  solver,
		AnalyticJac: r.Jacobian,
	}
}

// Estimate fits the system's rate constants to experimental data files
// using bounds from the RCIP table (constants without bounds get the
// defaults [lo, hi]).
func (r *Result) Estimate(files []*dataset.File, cfg estimator.Config,
	property func(y []float64) float64, solver ode.Options,
	lmOpts nlopt.Options) (*nlopt.Result, map[string]float64, error) {

	est, err := estimator.New(r.Model(property, solver), files, cfg)
	if err != nil {
		return nil, nil, err
	}
	n := len(r.System.Rates)
	lower := make([]float64, n)
	upper := make([]float64, n)
	start := make([]float64, n)
	for i, name := range r.System.Rates {
		b := rcip.Bound{Lower: 1e-3, Upper: 1e3, Start: 1}
		if r.Rates != nil {
			if rb, ok := r.Rates.Bounds[name]; ok {
				b = rb
			} else if v, ok := r.Rates.Values[name]; ok {
				// Fully determined constants stay fixed.
				b = rcip.Bound{Lower: v, Upper: v, Start: v}
			}
		}
		lower[i], upper[i], start[i] = b.Lower, b.Upper, b.Start
	}
	fit, err := est.Estimate(start, lower, upper, lmOpts)
	if err != nil {
		return nil, nil, err
	}
	named := make(map[string]float64, n)
	for i, name := range r.System.Rates {
		named[name] = fit.X[i]
	}
	return fit, named, nil
}

// OpReport summarizes the op counts at every optimization stage for one
// compilation — the per-case numbers of Table 1.
type OpReport struct {
	Equations                int
	RawMuls, RawAdds         int
	SimplifiedMuls           int
	SimplifiedAdds           int
	OptMuls, OptAdds         int
	PreludeMuls, PreludeAdds int
	Temps                    int
}

// Report computes the op-count summary.
func (r *Result) Report() OpReport {
	rep := OpReport{Equations: r.System.NumEquations(), Temps: len(r.Optimized.Temps)}
	rep.RawMuls, rep.RawAdds = r.System.TotalOps()
	rep.SimplifiedMuls, rep.SimplifiedAdds = r.System.SimplifiedOps()
	rep.OptMuls, rep.OptAdds = r.Optimized.CountOps()
	rep.PreludeMuls, rep.PreludeAdds = r.Optimized.PreludeOps()
	return rep
}

// String renders the report in one line.
func (rep OpReport) String() string {
	return fmt.Sprintf("eqs=%d raw=(%d*,%d+) simplified=(%d*,%d+) optimized=(%d*,%d+) prelude=(%d*,%d+) temps=%d",
		rep.Equations, rep.RawMuls, rep.RawAdds, rep.SimplifiedMuls, rep.SimplifiedAdds,
		rep.OptMuls, rep.OptAdds, rep.PreludeMuls, rep.PreludeAdds, rep.Temps)
}
