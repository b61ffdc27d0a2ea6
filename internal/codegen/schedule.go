package codegen

// schedWindow is the number of consecutive tape instructions one list
// schedule spans. Windows keep a reordered instruction near the
// instructions it was emitted among, so the slot file is still walked
// roughly in emission order. A schedule over the whole tape makes longer
// runs but scatters slot accesses across the whole slot file: on the
// scaled case-4 tapes it left the raw tape barely faster while windows
// of 512–2048 instructions sped it up about 1.5×, and the optimized
// tape gained about as much either way, so an unbounded schedule would
// inflate Table 1's raw/optimized ratio (docs/numerics.md has the
// measurements).
const schedWindow = 1024

// numOpcodes is the count of defined opcodes, OpAdd through OpDiv.
const numOpcodes = int(OpDiv) + 1

// operands is a scheduled instruction; its run carries the opcode.
type operands struct{ dst, a, b int32 }

// opRun is a stretch of one opcode in a runTape: the instructions from
// the previous run's end up to end.
type opRun struct {
	op  OpCode
	end int32
}

// runTape is an instruction sequence in run order, the form the
// evaluator executes.
type runTape struct {
	ins  []operands
	runs []opRun
}

// emit appends in to the tape, extending the last run when it carries
// the same opcode.
func (t *runTape) emit(in Instr) {
	t.ins = append(t.ins, operands{dst: in.Dst, a: in.A, b: in.B})
	end := int32(len(t.ins))
	if last := len(t.runs) - 1; last >= 0 && t.runs[last].op == in.Op {
		t.runs[last].end = end
		return
	}
	t.runs = append(t.runs, opRun{op: in.Op, end: end})
}

// unary reports whether op reads only its A operand.
func unary(op OpCode) bool { return op == OpNeg || op == OpMov }

// scheduler reorders a tape into runs of one opcode. Its workspaces are
// flat slices indexed by slot or by window-local instruction, reused
// across windows.
type scheduler struct {
	// Per slot: the tape index of the last instruction that wrote it,
	// and the latest read of it since that write as a read node
	// 2·index+operand; -1 when there is none. Entries older than the
	// current window are recognised by comparing with its start.
	lastWrite, lastRead []int32
	// Per read node of the window: the previous read of the same slot.
	prevRead []int32
	// The window's dependency edges (window-local instruction indices),
	// then the same edges as successor lists: the successors of i are
	// succ[succStart[i]:succStart[i+1]].
	from, to        []int32
	succStart, succ []int32
	indeg           []int32
	// Per opcode: a FIFO of ready window-local instructions.
	ready [numOpcodes][]int32
}

// schedule returns code as a runTape. It list-schedules each window of
// schedWindow consecutive instructions on its own (the windows run in
// tape order): it drains every ready instruction of one opcode,
// including those that become ready meanwhile, then switches to the
// opcode with the most ready instructions. An instruction is ready once
// every earlier instruction of its window that writes a slot it reads
// (read after write), reads the slot it writes (write after read) or
// writes that slot too (write after write) has been scheduled, so a
// hand-built tape that reuses slots runs as it did in order.
// Instructions with an undefined opcode do nothing and are dropped.
func (sc *scheduler) schedule(code []Instr, numSlots int) runTape {
	t := runTape{ins: make([]operands, 0, len(code))}
	slots := numSlots
	for _, in := range code {
		slots = max(slots, int(in.Dst)+1, int(in.A)+1, int(in.B)+1)
	}
	sc.lastWrite = resize(sc.lastWrite, slots, -1)
	sc.lastRead = resize(sc.lastRead, slots, -1)
	for w0 := 0; w0 < len(code); w0 += schedWindow {
		sc.window(&t, code, w0, min(w0+schedWindow, len(code)))
	}
	return t
}

// window schedules code[w0:w1] onto t.
func (sc *scheduler) window(t *runTape, code []Instr, w0, w1 int) {
	n := w1 - w0
	base := int32(w0)
	sc.from, sc.to = sc.from[:0], sc.to[:0]
	sc.prevRead = resize(sc.prevRead, 2*n, -1)
	edge := func(p, i int32) {
		sc.from = append(sc.from, p-base)
		sc.to = append(sc.to, i-base)
	}
	read := func(slot, i, operand int32) {
		if p := sc.lastWrite[slot]; p >= base {
			edge(p, i)
		}
		node := 2*i + operand
		sc.prevRead[node-2*base] = sc.lastRead[slot]
		sc.lastRead[slot] = node
	}
	for i := base; i < int32(w1); i++ {
		in := code[i]
		if int(in.Op) >= numOpcodes {
			continue
		}
		read(in.A, i, 0)
		if !unary(in.Op) {
			read(in.B, i, 1)
		}
		for r := sc.lastRead[in.Dst]; r >= 2*base; r = sc.prevRead[r-2*base] {
			if r/2 != i {
				edge(r/2, i)
			}
		}
		if p := sc.lastWrite[in.Dst]; p >= base {
			edge(p, i)
		}
		sc.lastWrite[in.Dst] = i
		sc.lastRead[in.Dst] = -1
	}

	// Successor lists by counting sort; walking the edges backwards
	// leaves each list in ascending order.
	sc.succStart = resize(sc.succStart, n+1, 0)
	sc.indeg = resize(sc.indeg, n, 0)
	for k, f := range sc.from {
		sc.succStart[f]++
		sc.indeg[sc.to[k]]++
	}
	for i := 1; i <= n; i++ {
		sc.succStart[i] += sc.succStart[i-1]
	}
	sc.succ = resize(sc.succ, len(sc.from), 0)
	for k := len(sc.from) - 1; k >= 0; k-- {
		f := sc.from[k]
		sc.succStart[f]--
		sc.succ[sc.succStart[f]] = sc.to[k]
	}

	var head [numOpcodes]int
	for op := range sc.ready {
		sc.ready[op] = sc.ready[op][:0]
	}
	for i := 0; i < n; i++ {
		if op := code[w0+i].Op; int(op) < numOpcodes && sc.indeg[i] == 0 {
			sc.ready[op] = append(sc.ready[op], int32(i))
		}
	}
	for {
		cur, most := -1, 0
		for op := range sc.ready {
			if c := len(sc.ready[op]) - head[op]; c > most {
				cur, most = op, c
			}
		}
		if cur < 0 {
			return
		}
		for head[cur] < len(sc.ready[cur]) {
			i := sc.ready[cur][head[cur]]
			head[cur]++
			t.emit(code[w0+int(i)])
			for _, s := range sc.succ[sc.succStart[i]:sc.succStart[i+1]] {
				if sc.indeg[s]--; sc.indeg[s] == 0 {
					op := code[w0+int(s)].Op
					sc.ready[op] = append(sc.ready[op], s)
				}
			}
		}
	}
}

// resize returns buf with length n, every element set to v, reusing its
// storage when it is large enough.
func resize(buf []int32, n int, v int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}
