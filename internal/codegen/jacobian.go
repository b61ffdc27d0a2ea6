package codegen

import (
	"sync"

	"rms/internal/eqgen"
	"rms/internal/linalg"
	"rms/internal/opt"
)

// JacobianProgram is a compiled analytic Jacobian: a tape whose outputs
// are the structurally nonzero entries ∂f_Row/∂y_Col of the ODE system's
// Jacobian, obtained by symbolic differentiation of the mass-action
// equations and run through the same optimizer as the equations
// themselves. The stiff solver consumes it in place of finite
// differences, replacing n+1 right-hand-side evaluations per Jacobian
// refresh with one tape run.
type JacobianProgram struct {
	// Prog computes all entries; Out[i] aligns with Rows[i], Cols[i].
	Prog *Program
	// Rows and Cols locate each output in the dense matrix.
	Rows, Cols []int32
	// N is the state dimension.
	N int

	// Lazily built canonical CSR layout (pattern plus full diagonal) and
	// the Data offset of each compiled entry within it; shared by all
	// evaluators (see PatternCSR, EvalCSR).
	entryOnce sync.Once
	proto     *linalg.CSR
	entryPos  []int32
}

// CompileJacobian differentiates the system symbolically and compiles the
// entries at the given optimizer level.
func CompileJacobian(sys *eqgen.System, l opt.Level) (*JacobianProgram, error) {
	js, entries := sys.JacobianSystem()
	prog, err := Compile(opt.Optimize(js, l))
	if err != nil {
		return nil, err
	}
	jp := &JacobianProgram{
		Prog: prog,
		Rows: make([]int32, len(entries)),
		Cols: make([]int32, len(entries)),
		N:    len(sys.Species),
	}
	for i, e := range entries {
		jp.Rows[i] = int32(e.Row)
		jp.Cols[i] = int32(e.Col)
	}
	return jp, nil
}

// NumEntries returns the count of structurally nonzero entries.
func (jp *JacobianProgram) NumEntries() int { return len(jp.Rows) }

// JacEvaluator fills dense Jacobian matrices from the compiled tape. One
// evaluator per goroutine.
type JacEvaluator struct {
	jp *JacobianProgram
	ev *Evaluator
}

// NewEvaluator returns a reusable Jacobian evaluator.
func (jp *JacobianProgram) NewEvaluator() *JacEvaluator {
	return &JacEvaluator{jp: jp, ev: jp.Prog.NewEvaluator()}
}

// Eval computes J = ∂f/∂y at (y, k) into dst (n×n, zeroed first).
func (je *JacEvaluator) Eval(y, k []float64, dst *linalg.Matrix) {
	// The tape's Out slots are the entries; Program.Eval writes them into
	// a vector sized NumY, but a Jacobian program's output count is the
	// entry count, so evaluate through the slot file directly.
	je.ev.EvalSlots(y, k)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i, row := range je.jp.Rows {
		dst.Set(int(row), int(je.jp.Cols[i]), je.ev.Slot(je.jp.Prog.Out[i]))
	}
}
