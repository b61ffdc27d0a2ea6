package service

import (
	"fmt"

	"rms/internal/budget"
	"rms/internal/linalg"
	"rms/internal/ode"
	"rms/internal/telemetry"
)

// SimulateRequest is one trajectory request against a compiled model.
// The defaults reproduce the rmssim CLI exactly: the adams-gear (BDF)
// solver with a dense analytic Jacobian, tolerances 1e-8/1e-11, and an
// evenly spaced output grid of Points rows over [0, TEnd].
type SimulateRequest struct {
	// Model is the cached model ID; Spec compiles (or cache-hits)
	// inline instead. Exactly one must be set on HTTP requests; the
	// direct RunSimulate entry point takes the model as an argument and
	// ignores both.
	Model string     `json:"model,omitempty"`
	Spec  *ModelSpec `json:"spec,omitempty"`

	// TEnd is the integration horizon (> 0); Points the number of
	// output rows including t=0 (>= 2).
	TEnd   float64 `json:"tend"`
	Points int     `json:"points"`
	// Solver is "adams-gear" (default) or "runge-kutta".
	Solver string `json:"solver,omitempty"`
	// RTol and ATol default to 1e-8 and 1e-11 (the rmssim defaults).
	RTol float64 `json:"rtol,omitempty"`
	ATol float64 `json:"atol,omitempty"`
	// Rates supplies rate-constant values by name, overriding (and
	// completing) the model's RCIP table. Every rate constant must end
	// up with a value.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Sparse switches the BDF Newton iteration to the sparse path,
	// forking the model's shared symbolic LU per request. Off by
	// default: the dense path is the rmssim-compatible one. The
	// runge-kutta solver has no Newton iteration and rejects it.
	Sparse bool `json:"sparse,omitempty"`
	// StartRow and Y resume a trajectory from a checkpoint: rows 0..
	// StartRow were already produced and Y is the state at StartRow.
	StartRow int       `json:"start_row,omitempty"`
	Y        []float64 `json:"y,omitempty"`
}

// SimulateResult is the trajectory. Row values travel as JSON float64,
// which Go encodes in shortest-round-trip form, so results are
// bit-identical across the HTTP boundary.
type SimulateResult struct {
	Model   string   `json:"model"`
	Species []string `json:"species"`
	// Rows holds [t, y0, y1, ...] per output row, from row StartRow (or
	// row 0 on a fresh run) through Row.
	Rows [][]float64 `json:"rows"`
	// Row is the last completed output row; Y the state there. A
	// budget-stopped run returns both so the caller can checkpoint and
	// resume.
	Row int       `json:"row"`
	Y   []float64 `json:"y"`
}

// SimOpts carries the per-request environment. Every field is
// optional; zero values run silent and unbounded.
type SimOpts struct {
	// Budget bounds the integration cooperatively; a trip returns the
	// partial result plus the budget's error.
	Budget *budget.Budget
	// Registry receives the solver's Stats when the run returns, its
	// step sizes and the tape counters.
	Registry *telemetry.Registry
	// Log is handed to the solver for rare-event records.
	Log *telemetry.Logger
	// Row, when non-nil, observes each completed output row in order
	// (row 0 included on fresh runs) — the CLI writes CSV and
	// checkpoints here. A Row error aborts the run with that error.
	Row func(row int, t float64, y []float64) error
}

// rateVector assembles the aligned rate-constant vector: request
// overrides first, then the model's RCIP table.
func rateVector(cm *CompiledModel, overrides map[string]float64) ([]float64, error) {
	names := cm.Res.System.Rates
	k := make([]float64, len(names))
	for i, name := range names {
		if v, ok := overrides[name]; ok {
			k[i] = v
			continue
		}
		if cm.Res.Rates != nil {
			if v, ok := cm.Res.Rates.Values[name]; ok {
				k[i] = v
				continue
			}
		}
		return nil, fmt.Errorf("service: rate constant %s has no value (supply rcip or rates)", name)
	}
	return k, nil
}

// RunSimulate integrates one trajectory against a compiled model. It
// is the single simulation code path: rmssim wraps it with CSV output
// and per-row checkpoints, the rmsd job runner with JSON results.
//
// On a budget trip the partial result (rows completed so far, with Row
// and Y positioned for a resume) is returned TOGETHER with the
// budget's error; any other error returns a nil result.
func RunSimulate(cm *CompiledModel, req SimulateRequest, so SimOpts) (*SimulateResult, error) {
	if req.Points < 2 {
		return nil, fmt.Errorf("service: need at least 2 output points, got %d", req.Points)
	}
	if req.TEnd <= 0 {
		return nil, fmt.Errorf("service: tend must be positive, got %g", req.TEnd)
	}
	if req.Solver == "" {
		req.Solver = "adams-gear"
	}
	if req.RTol == 0 {
		req.RTol = 1e-8
	}
	if req.ATol == 0 {
		req.ATol = 1e-11
	}
	k, err := rateVector(cm, req.Rates)
	if err != nil {
		return nil, err
	}
	res := cm.Res
	n := len(res.System.Y0)

	ev := res.Tape.NewEvaluator()
	ev.Observe(so.Registry)
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	opts := ode.Options{RTol: req.RTol, ATol: req.ATol, Budget: so.Budget, Log: so.Log,
		Observer: ode.ObserveStepSize(so.Registry, nil)}
	var solver interface {
		Integrate(t0, t1 float64, y []float64) error
		Stats() ode.Stats
	}
	switch req.Solver {
	case "adams-gear":
		if req.Sparse && cm.Pattern != nil {
			je := res.Jacobian.NewEvaluator()
			opts.SparsePattern = cm.Pattern
			opts.SparseJacobian = func(_ float64, y []float64, dst *linalg.CSR) {
				je.EvalCSR(y, k, dst)
			}
			opts.SymbolicLU = cm.LU
			// The request asked for the sparse path explicitly; open the
			// density/dimension gates so small models take it too.
			opts.SparseThreshold = 1
			opts.SparseMinDim = 2
		} else if res.Jacobian != nil {
			je := res.Jacobian.NewEvaluator()
			opts.Jacobian = func(_ float64, y []float64, dst *linalg.Matrix) {
				je.Eval(y, k, dst)
			}
		}
		solver = ode.NewBDF(rhs, n, opts)
	case "runge-kutta":
		if req.Sparse {
			return nil, fmt.Errorf("service: sparse needs the adams-gear solver, not runge-kutta")
		}
		solver = ode.NewRKV65(rhs, n, opts)
	default:
		return nil, fmt.Errorf("service: unknown solver %q", req.Solver)
	}
	// The solve's work is published once, however the run ends; the
	// families are registered now, so a scrape mid-run finds them.
	met := ode.NewStatsMetrics(so.Registry)
	defer func() { met.Publish(solver.Stats()) }()

	out := &SimulateResult{Model: cm.ID, Species: res.System.Species}
	y := append([]float64(nil), res.System.Y0...)
	emit := func(row int, t float64) error {
		out.Rows = append(out.Rows, append([]float64{t}, y...))
		out.Row = row
		// Snapshot the state at the completed row: a budget trip may
		// leave y mid-interval, and resumes must restart from a row.
		out.Y = append(out.Y[:0], y...)
		if so.Row != nil {
			return so.Row(row, t, y)
		}
		return nil
	}
	startRow := 1
	if req.StartRow > 0 {
		if len(req.Y) != n {
			return nil, fmt.Errorf("service: resume state has %d species, model has %d", len(req.Y), n)
		}
		copy(y, req.Y)
		startRow = req.StartRow + 1
		out.Row = req.StartRow
		out.Y = append([]float64(nil), y...)
	} else {
		if err := emit(0, 0); err != nil {
			return nil, err
		}
	}
	for i := startRow; i < req.Points; i++ {
		t0 := req.TEnd * float64(i-1) / float64(req.Points-1)
		t1 := req.TEnd * float64(i) / float64(req.Points-1)
		if err := solver.Integrate(t0, t1, y); err != nil {
			if budget.Exhausted(err) {
				return out, err
			}
			return nil, err
		}
		if err := emit(i, t1); err != nil {
			return nil, err
		}
	}
	return out, nil
}
