package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rms/internal/linalg"
	"rms/internal/ode"
	"rms/internal/service"
	"rms/internal/telemetry"
)

// span is one completed interval of a telemetry trace.
type span struct {
	Lane string
	Name string
	Dur  time.Duration
}

// spans exports tr through its Chrome trace writer — the tracer's only
// read-out — and returns its completed spans.
func spans(tr *telemetry.Tracer) ([]span, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	lanes := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes[ev.Tid], _ = ev.Args["name"].(string)
		}
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			out = append(out, span{Lane: lanes[ev.Tid], Name: ev.Name, Dur: time.Duration(ev.Dur * 1e3)})
		}
	}
	return out, nil
}

// probe is the solve probe: one trajectory re-solved through the
// codegen evaluators and ode.NewBDF with timed RHS and Jacobian
// callbacks, so its wall time splits into tape eval, Jacobian eval and
// ode self time (the BDF logic plus the Newton linear algebra).
type probe struct {
	wall, rhs, jac time.Duration
	rhsN, jacN     int
	stats          ode.Stats
}

func (p *probe) add(q probe) {
	p.wall += q.wall
	p.rhs += q.rhs
	p.jac += q.jac
	p.rhsN += q.rhsN
	p.jacN += q.jacN
}

// selfShare is the ode self-time share of the probed solves.
func (p probe) selfShare() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.wall-p.rhs-p.jac) / float64(p.wall)
}

func (p probe) rhsUS() float64 { return perCallUS(p.rhs, p.rhsN) }
func (p probe) jacUS() float64 { return perCallUS(p.jac, p.jacN) }

func perCallUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

// timedSolver builds a BDF solver over the model's tape and Jacobian
// with timed callbacks. mode selects what the callbacks offer:
// simulate's dense default (dense only), simulate's sparse request
// (sparse with the gates open), or the estimator's per-file solve
// (both, the solver choosing by its density heuristic).
func timedSolver(cm *service.CompiledModel, k []float64, o ode.Options, mode string, p *probe) *ode.BDF {
	res := cm.Res
	ev := res.Tape.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) {
		t0 := time.Now()
		ev.Eval(y, k, dy)
		p.rhs += time.Since(t0)
		p.rhsN++
	}
	je := res.Jacobian.NewEvaluator()
	dense := func(_ float64, y []float64, dst *linalg.Matrix) {
		t0 := time.Now()
		je.Eval(y, k, dst)
		p.jac += time.Since(t0)
		p.jacN++
	}
	sparse := func(_ float64, y []float64, dst *linalg.CSR) {
		t0 := time.Now()
		je.EvalCSR(y, k, dst)
		p.jac += time.Since(t0)
		p.jacN++
	}
	switch mode {
	case "dense":
		o.Jacobian = dense
	case "sparse":
		o.SparsePattern = cm.Pattern
		o.SparseJacobian = sparse
		o.SymbolicLU = cm.LU
		o.SparseThreshold = 1
		o.SparseMinDim = 2
	case "estimator":
		o.Jacobian = dense
		o.SparsePattern = res.Jacobian.PatternCSR()
		o.SparseJacobian = sparse
		o.SymbolicLU = cm.LU
	}
	return ode.NewBDF(rhs, len(res.System.Y0), o)
}

// probeSimulate re-solves one simulate request the way
// service.RunSimulate does (adams-gear, its default tolerances, the
// dense or the opened sparse Newton path) and returns the rows.
func probeSimulate(cm *service.CompiledModel, req service.SimulateRequest) ([][]float64, probe, error) {
	var p probe
	k := make([]float64, len(cm.Res.System.Rates))
	for i, name := range cm.Res.System.Rates {
		v, ok := req.Rates[name]
		if !ok {
			return nil, p, fmt.Errorf("probe: no rate for %s", name)
		}
		k[i] = v
	}
	mode := "dense"
	if req.Sparse {
		mode = "sparse"
	}
	t0 := time.Now()
	s := timedSolver(cm, k, ode.Options{RTol: 1e-8, ATol: 1e-11}, mode, &p)
	y := append([]float64(nil), cm.Res.System.Y0...)
	rows := [][]float64{append([]float64{0}, y...)}
	for i := 1; i < req.Points; i++ {
		ta := req.TEnd * float64(i-1) / float64(req.Points-1)
		tb := req.TEnd * float64(i) / float64(req.Points-1)
		if err := s.Integrate(ta, tb, y); err != nil {
			return nil, p, err
		}
		rows = append(rows, append([]float64{tb}, y...))
	}
	p.wall = time.Since(t0)
	p.stats = s.Stats()
	return rows, p, nil
}

// sameBits reports whether two row sets are bit-identical.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
