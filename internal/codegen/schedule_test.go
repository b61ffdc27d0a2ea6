package codegen

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rms/internal/eqgen"
	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/rdl"
	"rms/internal/vulcan"
)

// refRunCode is the reference interpreter: one opcode switch per
// instruction, in emission order. The run-ordered evaluator must match
// it bit for bit.
func refRunCode(s []float64, code []Instr) {
	for _, in := range code {
		switch in.Op {
		case OpAdd:
			s[in.Dst] = s[in.A] + s[in.B]
		case OpSub:
			s[in.Dst] = s[in.A] - s[in.B]
		case OpMul:
			s[in.Dst] = s[in.A] * s[in.B]
		case OpNeg:
			s[in.Dst] = -s[in.A]
		case OpMov:
			s[in.Dst] = s[in.A]
		case OpDiv:
			s[in.Dst] = s[in.A] / s[in.B]
		}
	}
}

// refEvalSlots returns the slot file after the reference interpreter
// runs p's prelude and code at (y, k).
func refEvalSlots(p *Program, y, k []float64) []float64 {
	s := make([]float64, p.NumSlots)
	copy(s, p.Consts)
	copy(s[len(p.Consts):], y)
	copy(s[len(p.Consts)+p.NumY:], k)
	refRunCode(s, p.Prelude)
	refRunCode(s, p.Code)
	return s
}

// checkAgainstReference evaluates p at (y, k) with ev and requires
// every slot to hold the reference interpreter's bits.
func checkAgainstReference(t testing.TB, name string, p *Program, ev *Evaluator, y, k []float64) {
	t.Helper()
	ev.EvalSlots(y, k)
	want := refEvalSlots(p, y, k)
	for i, w := range want {
		if g := ev.Slot(int32(i)); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: slot %d = %v (%#x), reference %v (%#x)",
				name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// scheduled expands a runTape back into instructions.
func scheduled(rt *runTape) []Instr {
	out := make([]Instr, 0, len(rt.ins))
	start := int32(0)
	for _, r := range rt.runs {
		for _, in := range rt.ins[start:r.end] {
			out = append(out, Instr{Op: r.op, Dst: in.dst, A: in.a, B: in.b})
		}
		start = r.end
	}
	return out
}

// checkScheduleInvariants holds a single-assignment tape's schedule to
// its contract: each window of schedWindow instructions is scheduled as
// a permutation of itself, every operand written by the tape is written
// earlier in the schedule, and no two adjacent runs share an opcode.
func checkScheduleInvariants(t *testing.T, name string, code []Instr, rt *runTape) {
	t.Helper()
	got := scheduled(rt)
	if len(got) != len(code) {
		t.Fatalf("%s: schedule has %d instructions, tape %d", name, len(got), len(code))
	}
	for w0 := 0; w0 < len(code); w0 += schedWindow {
		w1 := min(w0+schedWindow, len(code))
		count := make(map[Instr]int)
		for _, in := range code[w0:w1] {
			count[in]++
		}
		for _, in := range got[w0:w1] {
			if count[in]--; count[in] < 0 {
				t.Fatalf("%s: window at %d is not a permutation of its instructions (%+v)", name, w0, in)
			}
		}
	}
	writer := make(map[int32]bool)
	for _, in := range code {
		writer[in.Dst] = true
	}
	done := make(map[int32]bool)
	for pos, in := range got {
		if writer[in.A] && !done[in.A] || !unary(in.Op) && writer[in.B] && !done[in.B] {
			t.Fatalf("%s: scheduled instruction %d (%+v) reads a slot before its producer", name, pos, in)
		}
		done[in.Dst] = true
	}
	for i := 1; i < len(rt.runs); i++ {
		if rt.runs[i].op == rt.runs[i-1].op {
			t.Fatalf("%s: runs %d and %d share opcode %v", name, i-1, i, rt.runs[i].op)
		}
	}
}

// checkProgram holds p's evaluator to the reference at a few random
// points, including a change of k (a prelude rerun), and its schedules
// to their invariants.
func checkProgram(t *testing.T, name string, p *Program, rng *rand.Rand) {
	t.Helper()
	ev := p.NewEvaluator()
	checkScheduleInvariants(t, name+"/prelude", p.Prelude, &p.preludeRuns)
	checkScheduleInvariants(t, name+"/code", p.Code, &p.runs)
	y, k := randomInputs(rng, p)
	checkAgainstReference(t, name, p, ev, y, k)
	y2, _ := randomInputs(rng, p)
	checkAgainstReference(t, name+"/same k", p, ev, y2, k)
	_, k2 := randomInputs(rng, p)
	checkAgainstReference(t, name+"/new k", p, ev, y, k2)
}

// TestRunTapeMatchesReferenceVulcan: the RHS and Jacobian tapes of the
// vulcanization models, raw and optimized, evaluate bit for bit as the
// reference interpreter does.
func TestRunTapeMatchesReferenceVulcan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []int{10, 12, 14, 20, 35} {
		sys, err := vulcan.System(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			o    opt.Level
		}{{"raw", opt.LevelNone}, {"optimized", opt.Full()}} {
			name := mode.name
			checkProgram(t, name+"/rhs", compileSystem(t, sys, mode.o), rng)
			jp, err := CompileJacobian(sys, mode.o)
			if err != nil {
				t.Fatal(err)
			}
			checkProgram(t, name+"/jacobian", jp.Prog, rng)
		}
	}
}

// TestRunTapeMatchesReferenceRDL covers a tape compiled from RDL source
// through network generation.
func TestRunTapeMatchesReferenceRDL(t *testing.T) {
	prog, err := rdl.Parse(vulcan.RDLSource(12))
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	sys := eqgen.FromNetwork(net)
	rng := rand.New(rand.NewSource(2))
	checkProgram(t, "rdl/optimized", compileSystem(t, sys, opt.Full()), rng)
	checkProgram(t, "rdl/raw", compileSystem(t, sys, opt.LevelNone), rng)
}

// specials are the operand values IEEE 754 treats specially.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.5, 3, 1e308, -1e308, 1e-300,
}

func randomValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(40)-20))
}

// randomTape builds a seeded tape of n instructions over all six
// opcodes, with a prelude of m. With reuse set, results go to a pool of
// eight scratch slots instead of fresh ones, so slots are overwritten
// while earlier values are still to be read.
func randomTape(rng *rand.Rand, m, n int, reuse bool) *Program {
	p := &Program{NumY: 5, NumK: 3}
	for i := 0; i < 6; i++ {
		p.Consts = append(p.Consts, randomValue(rng))
	}
	inputs := len(p.Consts) + p.NumY + p.NumK
	next := int32(inputs)
	const pool = 8
	gen := func(count int) []Instr {
		code := make([]Instr, count)
		for i := range code {
			in := Instr{Op: OpCode(rng.Intn(numOpcodes))}
			// Favour recent slots so chains run deep; reach anywhere
			// now and then.
			pick := func() int32 {
				if next > int32(inputs) && rng.Intn(4) != 0 {
					lo := max(0, int(next)-16)
					return int32(lo + rng.Intn(int(next)-lo))
				}
				return int32(rng.Intn(int(next)))
			}
			in.A = pick()
			if !unary(in.Op) {
				in.B = pick()
			}
			if reuse {
				in.Dst = int32(inputs + rng.Intn(pool))
				next = max(next, int32(inputs+pool))
			} else {
				in.Dst = next
				next++
			}
			code[i] = in
		}
		return code
	}
	p.Prelude = gen(m)
	p.Code = gen(n)
	p.NumSlots = int(next)
	p.Out = []int32{next - 1}
	return p
}

// TestRunTapeMatchesReferenceRandom: seeded random tapes over all six
// opcodes with ±0, subnormal, ±Inf and NaN operands, in single
// assignment and with slot reuse, across several schedule windows.
func TestRunTapeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3*schedWindow)
		for _, reuse := range []bool{false, true} {
			p := randomTape(rng, rng.Intn(200), n, reuse)
			ev := p.NewEvaluator()
			if !reuse {
				checkScheduleInvariants(t, "random/prelude", p.Prelude, &p.preludeRuns)
				checkScheduleInvariants(t, "random/code", p.Code, &p.runs)
			}
			for point := 0; point < 3; point++ {
				y := make([]float64, p.NumY)
				for i := range y {
					y[i] = randomValue(rng)
				}
				k := make([]float64, p.NumK)
				for i := range k {
					k[i] = randomValue(rng)
				}
				checkAgainstReference(t, "random", p, ev, y, k)
			}
		}
	}
}

// TestRunTapeSlotReuse: a hand-built tape that overwrites slot 3 while
// its value is still to be read, and then overwrites it again before
// anything reads it. Without the write-after-read dependency the
// schedule would run both multiplications before the first addition
// reads slot 3; without the write-after-write one it would run the
// second addition (ready at once) before the first multiplication
// clobbers slot 3.
func TestRunTapeSlotReuse(t *testing.T) {
	p := &Program{
		NumY: 2, Consts: []float64{0.5}, NumSlots: 7,
		Code: []Instr{
			{Op: OpMul, Dst: 3, A: 1, B: 2}, // s3 = y0·y1
			{Op: OpAdd, Dst: 4, A: 3, B: 2}, // s4 = s3 + y1
			{Op: OpMul, Dst: 3, A: 2, B: 0}, // s3 = y1·0.5
			{Op: OpAdd, Dst: 3, A: 2, B: 0}, // s3 = y1 + 0.5
			{Op: OpMul, Dst: 5, A: 3, B: 1}, // s5 = s3·y0
			{Op: OpAdd, Dst: 6, A: 5, B: 4}, // s6 = s5 + s4
		},
		Out: []int32{6, 5},
	}
	ev := p.NewEvaluator()
	y := []float64{3, 2}
	checkAgainstReference(t, "reuse", p, ev, y, nil)
	dy := make([]float64, 2)
	ev.Eval(y, nil, dy)
	// s3 = 6, s4 = 8, s3 = 1, s3 = 2.5, s5 = 7.5, s6 = 15.5.
	if dy[0] != 15.5 || dy[1] != 7.5 {
		t.Fatalf("dy = %v, want [15.5 7.5]", dy)
	}
}

// TestRunTapeGroupsOpcodes: on the optimized vulcanization tape the
// schedule dispatches far fewer runs than instructions.
func TestRunTapeGroupsOpcodes(t *testing.T) {
	sys, err := vulcan.System(20)
	if err != nil {
		t.Fatal(err)
	}
	p := compileSystem(t, sys, opt.Full())
	p.NewEvaluator()
	if n, r := len(p.runs.ins), len(p.runs.runs); r*4 > n {
		t.Fatalf("%d runs over %d instructions: under 4 instructions per run", r, n)
	}
}

// TestRunTapeConcurrentFirstEvaluators: goroutines that make the first
// evaluators of one program at once share one schedule, and each
// evaluates bit for bit as the reference does (run under -race).
func TestRunTapeConcurrentFirstEvaluators(t *testing.T) {
	sys, err := vulcan.System(12)
	if err != nil {
		t.Fatal(err)
	}
	p := compileSystem(t, sys, opt.Full())
	y, k := randomInputs(rand.New(rand.NewSource(4)), p)
	want := refEvalSlots(p, y, k)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := p.NewEvaluator()
			ev.EvalSlots(y, k)
			for i, w := range want {
				if math.Float64bits(ev.Slot(int32(i))) != math.Float64bits(w) {
					t.Errorf("slot %d = %v, reference %v", i, ev.Slot(int32(i)), w)
					return
				}
			}
		}()
	}
	wg.Wait()
}
