package integration

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rms/internal/budget"
	"rms/internal/core"
	"rms/internal/linalg"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

const solverBitsFile = "solver_bits.txt"

// pinModel is one compiled vulcanization model with its true rates.
type pinModel struct {
	res *core.Result
	k   []float64
}

func compilePinModel(t *testing.T, variants int) pinModel {
	t.Helper()
	net, err := vulcan.Network(variants)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full(), AnalyticJacobian: true})
	if err != nil {
		t.Fatal(err)
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		t.Fatal(err)
	}
	return pinModel{res: res, k: k}
}

func (m pinModel) n() int { return len(m.res.System.Y0) }

func (m pinModel) y0() []float64 { return append([]float64(nil), m.res.System.Y0...) }

func (m pinModel) rhs() ode.Func {
	ev := m.res.Tape.NewEvaluator()
	return func(_ float64, y, dy []float64) { ev.Eval(y, m.k, dy) }
}

func (m pinModel) denseJac() func(float64, []float64, *linalg.Matrix) {
	je := m.res.Jacobian.NewEvaluator()
	return func(_ float64, y []float64, dst *linalg.Matrix) { je.Eval(y, m.k, dst) }
}

func (m pinModel) sparseJac() func(float64, []float64, *linalg.CSR) {
	je := m.res.Jacobian.NewEvaluator()
	return func(_ float64, y []float64, dst *linalg.CSR) { je.EvalCSR(y, m.k, dst) }
}

// withSparse offers the sparse Newton path with a prebuilt symbolic
// factorization the solver forks, as the service's model cache does.
func (m pinModel) withSparse(t *testing.T, o ode.Options) ode.Options {
	t.Helper()
	pat := m.res.Jacobian.PatternCSR()
	lu, err := linalg.NewSparseLU(pat)
	if err != nil {
		t.Fatal(err)
	}
	o.SparsePattern = pat
	o.SparseJacobian = m.sparseJac()
	o.SymbolicLU = lu
	return o
}

// pinLog accumulates one line per pinned value set.
type pinLog struct{ b strings.Builder }

func (p *pinLog) state(key string, y []float64) {
	p.b.WriteString(key)
	for _, v := range y {
		fmt.Fprintf(&p.b, " %016x", math.Float64bits(v))
	}
	p.b.WriteByte('\n')
}

// stats pins every ode.Stats field: ints in decimal, floats as bits.
func (p *pinLog) stats(t *testing.T, key string, st ode.Stats) {
	t.Helper()
	p.b.WriteString(key)
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int:
			fmt.Fprintf(&p.b, " %s=%d", name, f.Int())
		case reflect.Float64:
			fmt.Fprintf(&p.b, " %s=%016x", name, math.Float64bits(f.Float()))
		default:
			t.Fatalf("ode.Stats field %s has unpinned kind %s", name, f.Kind())
		}
	}
	p.b.WriteByte('\n')
}

// solveOnce integrates one model from y0 over [0, tEnd] in one call and
// pins the final state and the solver's counters.
func solveOnce(t *testing.T, p *pinLog, key string, m pinModel, f ode.Func, o ode.Options, tEnd float64, wantSparse bool) {
	t.Helper()
	s := ode.NewBDF(f, m.n(), o)
	y := m.y0()
	if err := s.Integrate(0, tEnd, y); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if s.Sparse() != wantSparse {
		t.Fatalf("%s: Sparse() = %v, want %v", key, s.Sparse(), wantSparse)
	}
	p.state(key+" y", y)
	p.stats(t, key+" stats", s.Stats())
}

// TestSolverBitPin pins the Adams-Gear solver bit for bit: every output
// state and every ode.Stats field of a fixed set of solves on the
// vulcanization models, stored as math.Float64bits hex in
// testdata/solver_bits.txt. TestGoldenVulcanization allows 1e-7 relative
// slack; this test fails on any change to the solver's arithmetic or
// step control. The cases cover each Jacobian source (finite
// differences, dense analytic, sparse with a forked symbolic LU), the
// sparse→dense demotion, fixed-step orders 1–4, continuation over the
// estimator's uneven record grid and over an even row grid, and a budget
// trip.
// Regenerate only after an intentional numerical change:
//
//	go test ./internal/integration -run SolverBitPin -update-golden
func TestSolverBitPin(t *testing.T) {
	v10, v12, v14 := compilePinModel(t, 10), compilePinModel(t, 12), compilePinModel(t, 14)
	tight := ode.Options{RTol: 1e-9, ATol: 1e-12}
	fit := ode.Options{RTol: 1e-8, ATol: 1e-11}
	var p pinLog

	// One-shot solves, one per Jacobian source.
	solveOnce(t, &p, "fd/v10", v10, v10.rhs(), tight, 1.5, false)
	dense := tight
	dense.Jacobian = v10.denseJac()
	solveOnce(t, &p, "dense/v10", v10, v10.rhs(), dense, 1.5, false)
	est := fit
	est.Jacobian = v14.denseJac()
	solveOnce(t, &p, "sparse-fork/v14", v14, v14.rhs(), v14.withSparse(t, est), 1.5, true)
	open := v10.withSparse(t, fit)
	open.SparseThreshold, open.SparseMinDim = 1, 2
	solveOnce(t, &p, "sparse-open/v10", v10, v10.rhs(), open, 1.5, true)

	// Sparse→dense demotion: a sparse Jacobian whose first pivot is NaN
	// fails every sparse refactorization, so the solver retires the sparse
	// path and continues on the dense analytic Jacobian, or on finite
	// differences when none is offered.
	poison := func(_ float64, _ []float64, dst *linalg.CSR) {
		dst.Zero()
		dst.Data[dst.Index(0, 0)] = math.NaN()
	}
	demote := v14.withSparse(t, est)
	demote.SparseJacobian = poison
	solveOnce(t, &p, "demote-dense/v14", v14, v14.rhs(), demote, 1.5, false)
	demoteFD := v10.withSparse(t, fit)
	demoteFD.SparseJacobian = poison
	demoteFD.SparseThreshold, demoteFD.SparseMinDim = 1, 2
	solveOnce(t, &p, "demote-fd/v10", v10, v10.rhs(), demoteFD, 1.5, false)

	// Fixed step, orders 1–4 (order > 1 starts from a Runge-Kutta history).
	for q := 1; q <= 4; q++ {
		solveOnce(t, &p, fmt.Sprintf("fixed-q%d/v10", q), v10, v10.rhs(),
			ode.Options{FixedStep: 2e-3, FixedOrder: q}, 0.05, false)
	}

	// Continuation over the estimator's record loop: uneven record times,
	// a repeated record, integration only when time advances.
	{
		s := ode.NewBDF(v14.rhs(), v14.n(), v14.withSparse(t, est))
		y := v14.y0()
		recs := []float64{0, 0.004, 0.0055, 0.03, 0.03, 0.11, 0.4, 0.41, 0.9, 1.5}
		tt := 0.0
		for j, rt := range recs {
			if rt > tt {
				if err := s.Integrate(tt, rt, y); err != nil {
					t.Fatalf("records: %v", err)
				}
				tt = rt
			}
			p.state(fmt.Sprintf("records/v14 r%d", j), y)
		}
		p.stats(t, "records/v14 stats", s.Stats())
	}

	// Continuation over RunSimulate's even row grid: the dense default and
	// the sparse path a request can ask for.
	rows := func(key string, m pinModel, o ode.Options) {
		s := ode.NewBDF(m.rhs(), m.n(), o)
		y := m.y0()
		const points, tEnd = 21, 1.5
		for i := 1; i < points; i++ {
			t0 := tEnd * float64(i-1) / float64(points-1)
			t1 := tEnd * float64(i) / float64(points-1)
			if err := s.Integrate(t0, t1, y); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			p.state(fmt.Sprintf("%s row%d", key, i), y)
		}
		p.stats(t, key+" stats", s.Stats())
	}
	rowsDense := fit
	rowsDense.Jacobian = v10.denseJac()
	rows("rows-dense/v10", v10, rowsDense)
	rowsSparse := v12.withSparse(t, fit)
	rowsSparse.SparseThreshold, rowsSparse.SparseMinDim = 1, 2
	rows("rows-sparse/v12", v12, rowsSparse)

	// Budget trip mid-integration: y holds the last accepted state.
	{
		bud := budget.New()
		base, evals := v10.rhs(), 0
		f := func(tt float64, y, dy []float64) {
			if evals++; evals == 300 {
				bud.Cancel("pin")
			}
			base(tt, y, dy)
		}
		o := dense
		o.Budget = bud
		s := ode.NewBDF(f, v10.n(), o)
		y := v10.y0()
		if err := s.Integrate(0, 1.5, y); !budget.Exhausted(err) {
			t.Fatalf("budget: want a budget trip, got %v", err)
		}
		p.state("budget/v10 y", y)
		p.stats(t, "budget/v10 stats", s.Stats())
	}

	path := filepath.Join("testdata", solverBitsFile)
	got := p.b.String()
	if *updateGolden {
		hdr := "# Adams-Gear bit pin: float64 values as math.Float64bits hex, ode.Stats\n" +
			"# fields in full. Written by TestSolverBitPin -update-golden.\n"
		if err := os.WriteFile(path, []byte(hdr+got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(gotLines) != len(want) {
		t.Fatalf("%d pinned lines, golden file has %d", len(gotLines), len(want))
	}
	bad := 0
	for i := range want {
		if gotLines[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("bit difference:\n got  %s\n want %s", gotLines[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d differing lines in all", bad)
	}
}
