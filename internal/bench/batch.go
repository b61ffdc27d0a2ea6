package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rms/internal/codegen"
	"rms/internal/core"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

// BatchRow is one batch-width measurement of the SoA batched tape
// evaluator against the serial per-condition interpreter on the same
// vulcanization tape.
type BatchRow struct {
	Variants   int
	Equations  int
	TapeInstrs int
	Batch      int // lanes per EvalBatch call

	// Nanoseconds per state evaluated: the serial interpreter evaluates
	// one condition per call; the batched evaluator amortizes instruction
	// dispatch across Batch lanes, so its per-state cost is
	// (ns per EvalBatch)/Batch.
	SerialNsPerState float64
	BatchNsPerState  float64

	// States (conditions) evaluated per second.
	SerialOpsPerSec float64
	BatchOpsPerSec  float64

	// Speedup is SerialNsPerState/BatchNsPerState — per-state throughput
	// gain from batching.
	Speedup float64

	// BitIdentical reports whether every lane of the batched output
	// matched the serial evaluator exactly (it must; false is a bug).
	BitIdentical bool
}

// BatchConfig shapes the batched-evaluation sweep.
type BatchConfig struct {
	// Variants sizes the vulcanization system (default: the largest
	// case's scaled size).
	Variants int
	// Batches lists the batch widths to measure (default 1,4,16,64,256).
	Batches []int
	// MinEvalTime is how long to time each configuration (default 200ms).
	MinEvalTime time.Duration
}

// BatchEval measures the batched SoA evaluator across batch widths,
// verifying bit-identical output against the serial interpreter at every
// width.
func BatchEval(cfg BatchConfig) ([]BatchRow, error) {
	if cfg.Variants == 0 {
		cfg.Variants = vulcan.Cases[len(vulcan.Cases)-1].ScaledVariants
	}
	if cfg.Batches == nil {
		cfg.Batches = []int{1, 4, 16, 64, 256}
	}
	if cfg.MinEvalTime == 0 {
		cfg.MinEvalTime = 200 * time.Millisecond
	}
	net, err := vulcan.Network(cfg.Variants)
	if err != nil {
		return nil, err
	}
	full, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		return nil, err
	}
	prog := full.Tape
	eqs := full.System.NumEquations()

	serialNs := bestOf(3, func() float64 { return timeEvals(prog, cfg.MinEvalTime) })

	var rows []BatchRow
	for _, b := range cfg.Batches {
		row, err := batchCase(prog, b, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: batch %d: %w", b, err)
		}
		row.Variants = cfg.Variants
		row.Equations = eqs
		row.SerialNsPerState = serialNs
		row.SerialOpsPerSec = 1e9 / serialNs
		row.Speedup = serialNs / row.BatchNsPerState
		rows = append(rows, row)
	}
	return rows, nil
}

func batchCase(prog *codegen.Program, b int, cfg BatchConfig) (BatchRow, error) {
	row := BatchRow{TapeInstrs: len(prog.Code), Batch: b}
	ev := prog.NewBatchEvaluator(b)

	// Per-lane conditions: the shared bench inputs perturbed per lane, so
	// every lane is a distinct state (as in a real multi-file solve).
	yBase, kBase := benchInputs(prog)
	ySoA := make([]float64, prog.NumY*b)
	kSoA := make([]float64, prog.NumK*b)
	lane := make([]float64, prog.NumY)
	for l := 0; l < b; l++ {
		for i, v := range yBase {
			ySoA[i*b+l] = v * (1 + 0.001*float64(l))
		}
		codegen.ScatterLane(kSoA, b, l, kBase)
	}
	dy := make([]float64, prog.NumY*b)

	// Bit-identity check against the serial interpreter, lane by lane.
	ev.EvalBatch(ySoA, kSoA, dy)
	serial := prog.NewEvaluator()
	want := make([]float64, prog.NumY)
	yl := make([]float64, prog.NumY)
	row.BitIdentical = true
	for l := 0; l < b; l++ {
		codegen.GatherLane(yl, ySoA, b, l)
		serial.Eval(yl, kBase, want)
		codegen.GatherLane(lane, dy, b, l)
		for i := range want {
			if math.Float64bits(lane[i]) != math.Float64bits(want[i]) {
				row.BitIdentical = false
			}
		}
	}

	// Time the batched sweep; the prelude is already cached per lane.
	row.BatchNsPerState = bestOf(3, func() float64 {
		evals := 0
		start := time.Now()
		for time.Since(start) < cfg.MinEvalTime {
			for i := 0; i < 4; i++ {
				ev.EvalBatch(ySoA, kSoA, dy)
			}
			evals += 4
		}
		return float64(time.Since(start).Nanoseconds()) / float64(evals*b)
	})
	row.BatchOpsPerSec = 1e9 / row.BatchNsPerState
	return row, nil
}

// bestOf returns the minimum of n runs of measure — the standard guard
// against a shared host's scheduling noise inflating one timing.
func bestOf(n int, measure func() float64) float64 {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		if v := measure(); v < best {
			best = v
		}
	}
	return best
}

// FormatBatch renders the batched-vs-serial throughput table.
func FormatBatch(rows []BatchRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "system: %d variants, %d equations, %d tape instrs"+NL,
			rows[0].Variants, rows[0].Equations, rows[0].TapeInstrs)
	}
	fmt.Fprintf(&b, "%-7s %-14s %-14s %-14s %-14s %-9s %-9s"+NL,
		"batch", "serial ns/st", "batch ns/st", "serial st/s", "batch st/s", "speedup", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %-14.0f %-14.0f %-14.0f %-14.0f %-9.2f %-9v"+NL,
			r.Batch, r.SerialNsPerState, r.BatchNsPerState,
			r.SerialOpsPerSec, r.BatchOpsPerSec, r.Speedup, r.BitIdentical)
	}
	b.WriteString("ns/st = nanoseconds per state (condition) evaluated; batching amortizes" + NL)
	b.WriteString("instruction dispatch across lanes of one SoA sweep (see docs/batched-eval.md)" + NL)
	return b.String()
}
