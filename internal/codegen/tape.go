// Package codegen lowers an (optionally optimized) ODE system to
// executable code. Two backends exist:
//
//   - a straight-line register tape (Program) executed by a small
//     interpreter — the form the suite actually runs inside the ODE
//     solver, playing the role of the compiled native code on the
//     paper's IBM SP;
//   - C source text (EmitC), the artifact the paper's compiler hands to
//     the commercial C compiler; package ccomp parses and "compiles" it,
//     reproducing the capacity behaviour of Table 1.
//
// The interpreter runs a tape as runs of one opcode. The paper's
// compiler emits one giant basic block and leaves its scheduling to the
// native compiler; here a list schedule, built once per Program by
// scheduler.schedule, stands in for that step. Within consecutive
// windows of schedWindow instructions it reorders the tape so that
// instructions of one opcode sit together, respecting every
// read-after-write, write-after-read and write-after-write dependency,
// and the evaluator dispatches once per run and executes a tight loop
// over it instead of switching on every instruction. Each instruction
// still computes the same IEEE 754 operation on the same operand values
// (no reassociation, no reciprocals, no fused multiply-add), so every
// result is bit-identical to executing Program.Code in order.
// Program.Code itself stays in emission order, the form Sparsity and
// CountOps read.
package codegen

import (
	"fmt"
	"math"
	"sync"

	"rms/internal/telemetry"
)

// OpCode enumerates tape instructions.
type OpCode uint8

const (
	// OpAdd: slot[Dst] = slot[A] + slot[B]
	OpAdd OpCode = iota
	// OpSub: slot[Dst] = slot[A] - slot[B]
	OpSub
	// OpMul: slot[Dst] = slot[A] * slot[B]
	OpMul
	// OpNeg: slot[Dst] = -slot[A]
	OpNeg
	// OpMov: slot[Dst] = slot[A]
	OpMov
	// OpDiv: slot[Dst] = slot[A] / slot[B]. The chemical compiler never
	// emits divisions, but the C-subset front end (package ccomp) accepts
	// them.
	OpDiv
)

func (o OpCode) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpNeg:
		return "neg"
	case OpMov:
		return "mov"
	case OpDiv:
		return "div"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one three-address tape instruction over slot indices.
type Instr struct {
	Op   OpCode
	Dst  int32
	A, B int32
}

// Program is a compiled, straight-line ODE right-hand-side evaluator.
// The slot file is laid out [consts | y | k | scratch]; Out[i] names the
// slot holding dy[i] after execution.
type Program struct {
	// NumY and NumK are the species and rate-constant counts.
	NumY, NumK int
	// Consts holds the literal pool, occupying slots [0, len(Consts)).
	Consts []float64
	// NumSlots is the total slot count including scratch.
	NumSlots int
	// Prelude is the instruction sequence that depends only on the rate
	// constants; the evaluator reruns it only when the k vector changes
	// (the hoisted once-per-parameter work).
	Prelude []Instr
	// Code is the per-evaluation instruction sequence.
	Code []Instr
	// Out[i] is the slot holding dy[i].
	Out []int32

	// The run-ordered forms of Prelude and Code, built by the first
	// NewEvaluator (see schedule); Prelude and Code must not change
	// after that.
	runsOnce          sync.Once
	preludeRuns, runs runTape
}

// YSlot returns the slot index of y[i].
func (p *Program) YSlot(i int) int32 { return int32(len(p.Consts) + i) }

// KSlot returns the slot index of k[j].
func (p *Program) KSlot(j int) int32 { return int32(len(p.Consts) + p.NumY + j) }

// NewEvaluator returns a reusable evaluator with its own scratch space;
// evaluators are not safe for concurrent use, but independent evaluators
// over one Program are.
func (p *Program) NewEvaluator() *Evaluator {
	p.runsOnce.Do(func() {
		var sc scheduler
		p.preludeRuns = sc.schedule(p.Prelude, p.NumSlots)
		p.runs = sc.schedule(p.Code, p.NumSlots)
	})
	e := &Evaluator{prog: p, slots: make([]float64, p.NumSlots)}
	copy(e.slots, p.Consts)
	return e
}

// Evaluator executes a Program. One evaluator per goroutine.
type Evaluator struct {
	prog  *Program
	slots []float64
	lastK []float64
	// preludeDone distinguishes "never evaluated" from "evaluated with an
	// empty or equal k": the prelude must run on the first evaluation even
	// when lastK compares equal to k (e.g. a program with NumK == 0).
	preludeDone bool

	// Telemetry counters (nil — free no-ops — unless Observe was called).
	telEvals   *telemetry.Counter
	telPrelude *telemetry.Counter
}

// Observe publishes the evaluator's activity into reg: tape evaluations
// and prelude reruns. A nil registry detaches (counters return to
// no-ops).
func (e *Evaluator) Observe(reg *telemetry.Registry) {
	e.telEvals = reg.Counter("tape.evals")
	e.telPrelude = reg.Counter("tape.prelude_runs")
}

// Eval computes dy = f(y, k). dy must have length len(Out) (NumY for ODE
// programs); y and k must have lengths NumY and NumK.
func (e *Evaluator) Eval(y, k, dy []float64) {
	p := e.prog
	if len(dy) != len(p.Out) {
		panic(fmt.Sprintf("codegen: Eval output length %d, want %d", len(dy), len(p.Out)))
	}
	e.EvalSlots(y, k)
	for i, slot := range p.Out {
		dy[i] = e.slots[slot]
	}
}

// EvalSlots runs the program for (y, k), leaving every result in the slot
// file for retrieval with Slot — the path used when the output list is
// not shaped like a dy vector (e.g. Jacobian entry programs).
func (e *Evaluator) EvalSlots(y, k []float64) {
	p := e.prog
	if len(y) != p.NumY || len(k) != p.NumK {
		panic(fmt.Sprintf("codegen: Eval shape mismatch: y=%d k=%d, want %d/%d",
			len(y), len(k), p.NumY, p.NumK))
	}
	s := e.slots
	copy(s[len(p.Consts):], y)
	// Rerun the prelude whenever the rate constants change *by value*: the
	// caller may mutate k in place between evaluations (the optimizer's
	// line-search loop does exactly that), so slice identity proves
	// nothing — lastK is a private copy compared element-wise. The compare
	// is on bit patterns, not ==: NaN != NaN would force a prelude rerun on
	// every evaluation once a non-finite trial parameter appears (the
	// optimizer's penalty path produces exactly these).
	if !e.preludeDone || !floatsBitEqual(e.lastK, k) {
		copy(s[len(p.Consts)+p.NumY:], k)
		p.preludeRuns.run(s)
		e.lastK = append(e.lastK[:0], k...)
		e.preludeDone = true
		e.telPrelude.Inc()
	}
	e.telEvals.Inc()
	p.runs.run(s)
}

// Slot reads a slot value after EvalSlots.
func (e *Evaluator) Slot(i int32) float64 { return e.slots[i] }

// floatsBitEqual compares two float vectors by bit pattern, so equal NaN
// payloads compare equal (and -0 differs from +0, which only costs a
// spurious — harmless — prelude rerun).
func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// run executes the tape over the slot file: one dispatch per run, then a
// loop that applies the run's opcode to each of its instructions.
func (t *runTape) run(s []float64) {
	start := int32(0)
	for _, r := range t.runs {
		seg := t.ins[start:r.end]
		start = r.end
		switch r.op {
		case OpAdd:
			for _, in := range seg {
				s[in.dst] = s[in.a] + s[in.b]
			}
		case OpSub:
			for _, in := range seg {
				s[in.dst] = s[in.a] - s[in.b]
			}
		case OpMul:
			for _, in := range seg {
				s[in.dst] = s[in.a] * s[in.b]
			}
		case OpNeg:
			for _, in := range seg {
				s[in.dst] = -s[in.a]
			}
		case OpMov:
			for _, in := range seg {
				s[in.dst] = s[in.a]
			}
		case OpDiv:
			for _, in := range seg {
				s[in.dst] = s[in.a] / s[in.b]
			}
		}
	}
}

// CountOps returns the arithmetic operation counts of the per-evaluation
// code (the prelude is excluded; see PreludeOps). Moves and unary
// negations are free: Table 1 counts '*' and binary '+'/'-' operators,
// and a leading sign folds into the expression at no counted cost in the
// static accounting (expr.CountOps), which this mirrors.
func (p *Program) CountOps() (muls, adds int) {
	return countCodeOps(p.Code)
}

// PreludeOps returns the operation counts of the once-per-rate-vector
// prelude.
func (p *Program) PreludeOps() (muls, adds int) {
	return countCodeOps(p.Prelude)
}

func countCodeOps(code []Instr) (muls, adds int) {
	for _, in := range code {
		switch in.Op {
		case OpMul, OpDiv:
			muls++
		case OpAdd, OpSub:
			adds++
		}
	}
	return muls, adds
}
