package codegen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rms/internal/linalg"
	"rms/internal/opt"
	"rms/internal/telemetry"
)

// batchInputs draws independent (y, k) per lane and returns them both
// lane-local (for serial reference evaluation) and slot-major SoA.
func batchInputs(rng *rand.Rand, prog *Program, b int) (ys, ks [][]float64, ySoA, kSoA []float64) {
	ySoA = make([]float64, prog.NumY*b)
	kSoA = make([]float64, prog.NumK*b)
	for l := 0; l < b; l++ {
		y, k := randomInputs(rng, prog)
		ys, ks = append(ys, y), append(ks, k)
		ScatterLane(ySoA, b, l, y)
		ScatterLane(kSoA, b, l, k)
	}
	return ys, ks, ySoA, kSoA
}

// TestBatchEvalBitIdentical is the batch engine's core property: batched
// SoA evaluation with per-lane inputs matches per-lane serial evaluation
// bit for bit, across batch widths (full and partial blocks) and
// optimizer settings.
func TestBatchEvalBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng)
		for _, o := range []opt.Options{{}, opt.Full()} {
			prog := compileSystem(t, sys, o)
			for _, b := range []int{1, 3, 17, 70, 130} {
				ys, ks, ySoA, kSoA := batchInputs(rng, prog, b)
				want := make([][]float64, b)
				serial := prog.NewEvaluator()
				for l := 0; l < b; l++ {
					want[l] = make([]float64, prog.NumY)
					serial.Eval(ys[l], ks[l], want[l])
				}
				ev := prog.NewBatchEvaluator(b)
				dy := make([]float64, prog.NumY*b)
				ev.EvalBatch(ySoA, kSoA, dy)
				got := make([]float64, prog.NumY)
				for l := 0; l < b; l++ {
					GatherLane(got, dy, b, l)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[l][i]) {
							t.Logf("seed %d b=%d lane %d eq %d: %v != %v",
								seed, b, l, i, got[i], want[l][i])
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBatchPreludeCachePerLane: the prelude reruns only for lanes whose k
// column changed, and — the regression the serial cache fix shares — a k
// column containing NaN still hits the cache on repeat evaluations.
func TestBatchPreludeCachePerLane(t *testing.T) {
	sys := familySystem(4)
	prog := compileSystem(t, sys, opt.Full())
	const b = 8
	ev := prog.NewBatchEvaluator(b)
	reg := telemetry.NewRegistry()
	ev.Observe(reg)
	preludes := reg.Counter("tape.batch_prelude_runs")

	rng := rand.New(rand.NewSource(9))
	_, _, y, k := batchInputs(rng, prog, b)
	// Poison lane 5's k column with NaN: the bit-pattern compare must
	// still treat it as cached on repeats.
	for j := 0; j < prog.NumK; j++ {
		k[j*b+5] = math.NaN()
	}
	dy := make([]float64, prog.NumY*b)
	ev.EvalBatch(y, k, dy)
	if got := preludes.Value(); got != b {
		t.Fatalf("first eval ran prelude for %d lanes, want %d", got, b)
	}
	for rep := 0; rep < 3; rep++ {
		ev.EvalBatch(y, k, dy)
	}
	if got := preludes.Value(); got != b {
		t.Fatalf("repeat evals with unchanged (NaN-containing) k reran prelude: %d lane-runs, want %d", got, b)
	}
	// Dirty exactly two lanes; only they rerun.
	k[0*b+2] *= 1.5
	if prog.NumK > 0 {
		k[0*b+6] *= 0.5
	}
	ev.EvalBatch(y, k, dy)
	if got := preludes.Value(); got != b+2 {
		t.Fatalf("dirtying 2 lanes reran prelude for %d lanes, want 2", got-b)
	}
}

// TestSerialPreludeCacheNaN is the ISSUE's serial-evaluator regression:
// tape.prelude_runs stays at 1 across repeated evaluations with a
// NaN-containing k (the optimizer's penalty path), instead of rerunning
// every time because NaN != NaN.
func TestSerialPreludeCacheNaN(t *testing.T) {
	sys := familySystem(4)
	prog := compileSystem(t, sys, opt.Full())
	ev := prog.NewEvaluator()
	reg := telemetry.NewRegistry()
	ev.Observe(reg)
	preludes := reg.Counter("tape.prelude_runs")

	y := make([]float64, prog.NumY)
	for i := range y {
		y[i] = 0.5
	}
	k := make([]float64, prog.NumK)
	for j := range k {
		k[j] = math.NaN()
	}
	dy := make([]float64, prog.NumY)
	for rep := 0; rep < 5; rep++ {
		ev.Eval(y, k, dy)
	}
	if got := preludes.Value(); got != 1 {
		t.Fatalf("tape.prelude_runs = %d after 5 evals with constant NaN k, want 1", got)
	}
}

// TestBatchJacobianBitIdentical: the batched Jacobian scatter fills each
// active lane's CSR bit-identically to the serial JacEvaluator, and
// leaves inactive lanes untouched.
func TestBatchJacobianBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := randomSystem(rng)
	jp, err := CompileJacobian(sys, opt.Full())
	if err != nil {
		t.Fatal(err)
	}
	const b = 5
	ys, ks, ySoA, kSoA := batchInputs(rng, jp.Prog, b)

	serial := jp.NewEvaluator()
	want := make([]*linalg.CSR, b)
	for l := 0; l < b; l++ {
		want[l] = jp.PatternCSR()
		serial.EvalCSR(ys[l], ks[l], want[l])
	}

	je := jp.NewBatchEvaluator(b)
	dst := make([]*linalg.CSR, b)
	for l := range dst {
		dst[l] = jp.PatternCSR()
	}
	active := []bool{true, true, false, true, true}
	sentinel := 12345.0
	dst[2].Data[0] = sentinel
	je.EvalCSR(ySoA, kSoA, active, dst)
	for l := 0; l < b; l++ {
		if !active[l] {
			if dst[l].Data[0] != sentinel {
				t.Errorf("inactive lane %d was written", l)
			}
			continue
		}
		for i := range want[l].Data {
			if math.Float64bits(dst[l].Data[i]) != math.Float64bits(want[l].Data[i]) {
				t.Errorf("lane %d entry %d: %v != %v", l, i, dst[l].Data[i], want[l].Data[i])
			}
		}
	}
}

// TestBatchShapeChecks: dimension mismatches panic rather than corrupt.
func TestBatchShapeChecks(t *testing.T) {
	sys := familySystem(3)
	prog := compileSystem(t, sys, opt.Full())
	ev := prog.NewBatchEvaluator(4)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	good := func(n int) []float64 { return make([]float64, n) }
	mustPanic("short y", func() {
		ev.EvalBatch(good(prog.NumY*4-1), good(prog.NumK*4), good(prog.NumY*4))
	})
	mustPanic("short k", func() {
		ev.EvalBatch(good(prog.NumY*4), good(prog.NumK*4+1), good(prog.NumY*4))
	})
	mustPanic("short dy", func() {
		ev.EvalBatch(good(prog.NumY*4), good(prog.NumK*4), good(prog.NumY*4-2))
	})
	mustPanic("zero lanes", func() { prog.NewBatchEvaluator(0) })
}
