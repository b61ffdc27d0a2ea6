package codegen

import (
	"fmt"
	"math"

	"rms/internal/linalg"
	"rms/internal/telemetry"
)

// Batched structure-of-arrays tape evaluation: one compiled Program
// evaluated for B independent states (lanes) per instruction sweep, the
// approach Stone et al. (arXiv:1608.05794) show is the portable win for
// finite-rate chemistry kernels across CPU architectures. The slot file
// is block-tiled: lanes are grouped into blocks of batchLaneBlock, and
// each block owns a compact [NumSlots][bs]float64 slot file, so each
// instruction becomes a short contiguous lane loop, the interpreter's
// per-instruction dispatch cost is amortized over the block, and the
// sweep's cache and TLB working set stays fixed as B grows (a flat
// [NumSlots][B] layout would stride every slot row B lanes apart).
//
// Lanes are fully independent — each is exactly the serial evaluator's
// arithmetic in the serial instruction order — so batched results are
// bit-identical to serial evaluation lane by lane (the conformance
// harness's "batch" stage proves it).

// batchLaneBlock is the tile width: the per-evaluation code runs to
// completion over one block's compact slot file before moving to the
// next block, keeping the block working set (NumSlots × block × 8 bytes)
// cache-resident instead of streaming a B-wide slot file once per
// instruction.
const batchLaneBlock = 16

// BatchEvaluator executes a Program for B lanes at once over a
// block-tiled SoA slot file. One evaluator per goroutine.
type BatchEvaluator struct {
	prog *Program
	b    int // external batch width (lanes)
	bs   int // lanes per block: min(b, batchLaneBlock)
	nblk int // number of blocks; lanes are padded to nblk*bs internally
	// slots is the block-tiled slot file:
	// slots[blk*NumSlots*bs + slot*bs + lane%bs], blk = lane/bs.
	// Padded lanes (beyond b in the last block) replicate lane b-1 so
	// their sweeps stay on normal floating-point values; they are never
	// read back.
	slots []float64
	// lastK[lane*NumK+j] caches the prelude's rate vector per lane
	// (padded width), compared by bit pattern (see Evaluator.Prime).
	lastK       []float64
	preludeDone []bool

	// Telemetry counters (nil — free no-ops — unless Observe was called).
	telEvals     *telemetry.Counter // batched evaluations
	telLaneEvals *telemetry.Counter // lane-evaluations (evals × B)
	telPrelude   *telemetry.Counter // per-lane prelude runs
}

// NewBatchEvaluator returns a reusable batch evaluator for b lanes with
// its own SoA scratch space. b must be positive.
func (p *Program) NewBatchEvaluator(b int) *BatchEvaluator {
	if b <= 0 {
		panic(fmt.Sprintf("codegen: batch of %d lanes", b))
	}
	bs := b
	if bs > batchLaneBlock {
		bs = batchLaneBlock
	}
	nblk := (b + bs - 1) / bs
	e := &BatchEvaluator{
		prog:        p,
		b:           b,
		bs:          bs,
		nblk:        nblk,
		slots:       make([]float64, nblk*p.NumSlots*bs),
		lastK:       make([]float64, p.NumK*nblk*bs),
		preludeDone: make([]bool, nblk*bs),
	}
	// Broadcast the literal pool into every block once.
	for blk := 0; blk < nblk; blk++ {
		for c, v := range p.Consts {
			row := e.row(blk, int32(c))
			for l := range row {
				row[l] = v
			}
		}
	}
	return e
}

// row returns block blk's lane row for one slot.
func (e *BatchEvaluator) row(blk int, slot int32) []float64 {
	base := blk*e.prog.NumSlots*e.bs + int(slot)*e.bs
	return e.slots[base : base+e.bs]
}

// block returns block blk's whole compact slot file.
func (e *BatchEvaluator) block(blk int) []float64 {
	base := blk * e.prog.NumSlots * e.bs
	return e.slots[base : base+e.prog.NumSlots*e.bs]
}

// Lanes returns the batch width B.
func (e *BatchEvaluator) Lanes() int { return e.b }

// Observe publishes the evaluator's activity into reg: batched
// evaluations, lane-evaluations and per-lane prelude runs. A nil
// registry detaches (counters return to no-ops).
func (e *BatchEvaluator) Observe(reg *telemetry.Registry) {
	e.telEvals = reg.Counter("tape.batch_evals")
	e.telLaneEvals = reg.Counter("tape.batch_lane_evals")
	e.telPrelude = reg.Counter("tape.batch_prelude_runs")
}

// EvalBatch computes dy = f(y, k) for every lane. All three arguments are
// slot-major SoA: y[i*B+lane], k[j*B+lane], dy[i*B+lane], with lengths
// NumY·B, NumK·B and len(Out)·B.
func (e *BatchEvaluator) EvalBatch(y, k, dy []float64) {
	p := e.prog
	if len(dy) != len(p.Out)*e.b {
		panic(fmt.Sprintf("codegen: EvalBatch output length %d, want %d", len(dy), len(p.Out)*e.b))
	}
	e.EvalSlotsBatch(y, k)
	for i, slot := range p.Out {
		e.gatherRow(dy[i*e.b:(i+1)*e.b], slot)
	}
}

// EvalSlotsBatch runs the program for (y, k) across all lanes, leaving
// every result in the SoA slot file for retrieval with Slot — the path
// used when the output list is not shaped like a dy vector (Jacobian
// entry programs).
func (e *BatchEvaluator) EvalSlotsBatch(y, k []float64) {
	p, b := e.prog, e.b
	if len(y) != p.NumY*b || len(k) != p.NumK*b {
		panic(fmt.Sprintf("codegen: EvalBatch shape mismatch: y=%d k=%d, want %d/%d",
			len(y), len(k), p.NumY*b, p.NumK*b))
	}
	for i := 0; i < p.NumY; i++ {
		e.scatterRow(int32(len(p.Consts)+i), y[i*b:(i+1)*b])
	}
	e.runPrelude(k)
	e.telEvals.Inc()
	e.telLaneEvals.Add(int64(b))
	e.runBlocks()
}

// scatterRow spreads one external SoA row (stride b) across the blocks'
// compact rows, replicating the last lane into the padding.
func (e *BatchEvaluator) scatterRow(slot int32, src []float64) {
	bs := e.bs
	for blk := 0; blk < e.nblk; blk++ {
		row := e.row(blk, slot)
		lo := blk * bs
		n := copy(row, src[lo:min(lo+bs, e.b)])
		for l := n; l < bs; l++ {
			row[l] = src[e.b-1]
		}
	}
}

// gatherRow collects one slot's lanes from the blocks into an external
// SoA row (stride b), dropping the padding.
func (e *BatchEvaluator) gatherRow(dst []float64, slot int32) {
	bs := e.bs
	for blk := 0; blk < e.nblk; blk++ {
		lo := blk * bs
		copy(dst[lo:min(lo+bs, e.b)], e.row(blk, slot))
	}
}

// Slot reads one lane's slot value after EvalSlotsBatch.
func (e *BatchEvaluator) Slot(i int32, lane int) float64 {
	return e.row(lane/e.bs, i)[lane%e.bs]
}

// runPrelude reruns the hoisted once-per-rate-vector code for exactly the
// lanes whose k column changed, caching per lane by bit pattern so
// repeated non-finite trial parameters still hit the cache. Dirty lanes
// are swept in maximal contiguous runs (padded lanes replicate lane b-1's
// k, so a run ending at the batch edge extends over the padding and the
// padded columns stay warm too).
func (e *BatchEvaluator) runPrelude(k []float64) {
	p, bs := e.prog, e.bs
	kBase := int32(len(p.Consts) + p.NumY)
	width := e.nblk * bs
	dirty := 0
	for lo := 0; lo < width; {
		if !e.laneDirty(k, lo) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < width && e.laneDirty(k, hi) {
			hi++
		}
		// Scatter the dirty lanes' k columns into their blocks and sweep
		// the prelude over just that lane range, block by block.
		for l := lo; l < hi; l++ {
			src := min(l, e.b-1)
			blk, off := l/bs, l%bs
			for j := 0; j < p.NumK; j++ {
				e.row(blk, kBase+int32(j))[off] = k[j*e.b+src]
			}
		}
		for blk := lo / bs; blk*bs < hi; blk++ {
			blo, bhi := max(lo-blk*bs, 0), min(hi-blk*bs, bs)
			runCodeBatch(e.block(blk), p.Prelude, bs, blo, bhi)
		}
		for l := lo; l < hi; l++ {
			src := min(l, e.b-1)
			for j := 0; j < p.NumK; j++ {
				e.lastK[l*p.NumK+j] = k[j*e.b+src]
			}
			e.preludeDone[l] = true
		}
		// Count real lanes only, not the replicated padding.
		if realHi := min(hi, e.b); realHi > lo {
			dirty += realHi - lo
		}
		lo = hi
	}
	if dirty > 0 {
		e.telPrelude.Add(int64(dirty))
	}
}

// laneDirty reports whether lane's k column differs (by bit pattern) from
// the cached prelude inputs. Padded lanes mirror lane b-1.
func (e *BatchEvaluator) laneDirty(k []float64, lane int) bool {
	if !e.preludeDone[lane] {
		return true
	}
	nk := e.prog.NumK
	src := min(lane, e.b-1)
	for j := 0; j < nk; j++ {
		if math.Float64bits(e.lastK[lane*nk+j]) != math.Float64bits(k[j*e.b+src]) {
			return true
		}
	}
	return false
}

// runBlocks sweeps the per-evaluation code over every block, one compact
// slot file at a time.
func (e *BatchEvaluator) runBlocks() {
	code := e.prog.Code
	for blk := 0; blk < e.nblk; blk++ {
		s := e.block(blk)
		if e.bs == batchLaneBlock {
			runCodeBatchFull(s, code)
		} else {
			runCodeBatch(s, code, e.bs, 0, e.bs)
		}
	}
}

// runCodeBatch executes an instruction sequence over one compact block
// slot file for lanes [lo, hi): each instruction is one contiguous loop
// over the lane range — the structure-of-arrays sweep the batch layout
// exists for.
func runCodeBatch(s []float64, code []Instr, b, lo, hi int) {
	for _, in := range code {
		d := s[int(in.Dst)*b+lo : int(in.Dst)*b+hi]
		a := s[int(in.A)*b+lo : int(in.A)*b+hi]
		switch in.Op {
		case OpAdd:
			bb := s[int(in.B)*b+lo : int(in.B)*b+hi]
			for l := range d {
				d[l] = a[l] + bb[l]
			}
		case OpSub:
			bb := s[int(in.B)*b+lo : int(in.B)*b+hi]
			for l := range d {
				d[l] = a[l] - bb[l]
			}
		case OpMul:
			bb := s[int(in.B)*b+lo : int(in.B)*b+hi]
			for l := range d {
				d[l] = a[l] * bb[l]
			}
		case OpNeg:
			for l := range d {
				d[l] = -a[l]
			}
		case OpMov:
			copy(d, a)
		case OpDiv:
			bb := s[int(in.B)*b+lo : int(in.B)*b+hi]
			for l := range d {
				d[l] = a[l] / bb[l]
			}
		}
	}
}

// runCodeBatchFull is runCodeBatch specialized to a full
// batchLaneBlock-wide block: the fixed-size array views let the compiler
// drop the per-element bounds checks from the hot lane loops.
func runCodeBatchFull(s []float64, code []Instr) {
	const bs = batchLaneBlock
	for _, in := range code {
		d := (*[bs]float64)(s[int(in.Dst)*bs:])
		a := (*[bs]float64)(s[int(in.A)*bs:])
		switch in.Op {
		case OpAdd:
			bb := (*[bs]float64)(s[int(in.B)*bs:])
			for l := 0; l < bs; l++ {
				d[l] = a[l] + bb[l]
			}
		case OpSub:
			bb := (*[bs]float64)(s[int(in.B)*bs:])
			for l := 0; l < bs; l++ {
				d[l] = a[l] - bb[l]
			}
		case OpMul:
			bb := (*[bs]float64)(s[int(in.B)*bs:])
			for l := 0; l < bs; l++ {
				d[l] = a[l] * bb[l]
			}
		case OpNeg:
			for l := 0; l < bs; l++ {
				d[l] = -a[l]
			}
		case OpMov:
			*d = *a
		case OpDiv:
			bb := (*[bs]float64)(s[int(in.B)*bs:])
			for l := 0; l < bs; l++ {
				d[l] = a[l] / bb[l]
			}
		}
	}
}

// ScatterLane writes a lane-local vector v into column lane of the
// slot-major SoA array dst (len(v) rows of width b).
func ScatterLane(dst []float64, b, lane int, v []float64) {
	for i, x := range v {
		dst[i*b+lane] = x
	}
}

// GatherLane reads column lane of the slot-major SoA array src into the
// lane-local vector dst (len(dst) rows of width b).
func GatherLane(dst []float64, src []float64, b, lane int) {
	for i := range dst {
		dst[i] = src[i*b+lane]
	}
}

// BatchJacEvaluator fills per-lane CSR Jacobians from one batched sweep
// of the compiled Jacobian tape.
type BatchJacEvaluator struct {
	jp *JacobianProgram
	ev *BatchEvaluator
}

// NewBatchEvaluator returns a batched Jacobian evaluator for b lanes.
func (jp *JacobianProgram) NewBatchEvaluator(b int) *BatchJacEvaluator {
	return &BatchJacEvaluator{jp: jp, ev: jp.Prog.NewBatchEvaluator(b)}
}

// EvalCSR computes every lane's Jacobian at the batch state (y, k) in one
// tape sweep, scattering each lane's entries into dst[lane] for each lane
// with active[lane] (a nil active fills every lane; inactive lanes' CSRs
// are left untouched). Each destination must have been created by
// PatternCSR; entries are bit-identical to the serial JacEvaluator's.
// y and k are slot-major SoA as in EvalBatch.
func (je *BatchJacEvaluator) EvalCSR(y, k []float64, active []bool, dst []*linalg.CSR) {
	jp := je.jp
	jp.entryOnce.Do(jp.buildEntryIndex)
	if len(dst) != je.ev.b {
		panic(fmt.Sprintf("codegen: EvalCSR got %d destinations for %d lanes", len(dst), je.ev.b))
	}
	je.ev.EvalSlotsBatch(y, k)
	for lane, m := range dst {
		if active != nil && !active[lane] {
			continue
		}
		if m.N != jp.N || m.NNZ() != jp.proto.NNZ() {
			panic("codegen: EvalCSR destination does not match PatternCSR layout")
		}
		m.Zero()
		for i, pos := range jp.entryPos {
			m.Data[pos] = je.ev.Slot(jp.Prog.Out[i], lane)
		}
	}
}
