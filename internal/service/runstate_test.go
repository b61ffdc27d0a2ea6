package service

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"rms/internal/checkpoint"
	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/nlopt"
	"rms/internal/sched"
)

// loadRunState reads a run checkpoint from testdata.
func loadRunState(t *testing.T, name string) RunState {
	t.Helper()
	var st RunState
	if err := checkpoint.Load(filepath.Join("testdata", name), RunKind, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	in := RunState{
		Opt: nlopt.CheckState{Iter: 4, X: []float64{0.5, 1.5}, Lambda: 1e-3, RNorm: 0.25},
	}
	in.Est.Calls = 9
	in.Est.LastTimes = []float64{10, 20}
	if err := checkpoint.Save(path, RunKind, in); err != nil {
		t.Fatal(err)
	}
	var out RunState
	if err := checkpoint.Load(path, RunKind, &out); err != nil {
		t.Fatal(err)
	}
	if out.Opt.Iter != 4 || out.Opt.Lambda != 1e-3 || len(out.Opt.X) != 2 {
		t.Errorf("optimizer state mismatch: %+v", out.Opt)
	}
	if out.Est.Calls != 9 || len(out.Est.LastTimes) != 2 {
		t.Errorf("estimator state mismatch: %+v", out.Est)
	}

	// Run checkpoints written by retired features. The envelope version
	// is unchanged and payloads decode with plain json.Unmarshal, which
	// skips the retired keys — every file but run_lb_v1.ckpt also
	// carries the fault-plan snapshot (faults) that run checkpoints no
	// longer hold — so each still restores.
	//
	// run_pools_v1.ckpt was written before the intra-rank worker pools
	// were retired: its estimator state carries the pool→serial latch
	// (pools_off) and demotion count (Degrade.PoolSerial).
	old := loadRunState(t, "run_pools_v1.ckpt")
	// dy = -k·y over the slot file [y | k | scratch].
	prog := &codegen.Program{
		NumY: 1, NumK: 1, NumSlots: 4,
		Code: []codegen.Instr{{Op: codegen.OpMul, Dst: 2, A: 0, B: 1}, {Op: codegen.OpNeg, Dst: 3, A: 2}},
		Out:  []int32{3},
	}
	model := &estimator.Model{Prog: prog, Y0: []float64{1},
		Property: func(y []float64) float64 { return y[0] }}
	files := []*dataset.File{
		{Name: "a", Records: []dataset.Record{{T: 1, Value: 0.4}}},
		{Name: "b", Records: []dataset.Record{{T: 1, Value: 0.3}}},
	}
	est, err := estimator.New(model, files, estimator.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Restore(old.Est); err != nil {
		t.Fatalf("restore of a pre-retirement estimator state: %v", err)
	}
	if est.Calls() != 3 || old.Opt.Iter != 2 {
		t.Errorf("restored calls %d, iter %d; want 3, 2", est.Calls(), old.Opt.Iter)
	}

	// run_lb_v1.ckpt was written by a 2-rank load-balanced fit,
	// interrupted at iteration 2, from before the lpt policy replaced
	// the load-balance flag: its estimator state holds a legacy
	// assignment and no cost model, which the lpt estimator restores as
	// whole-file plans.
	lb := loadRunState(t, "run_lb_v1.ckpt")
	var lbFiles []*dataset.File
	for i, n := range []int{8, 2, 4} {
		f := &dataset.File{Name: string(rune('a' + i))}
		for j := 1; j <= n; j++ {
			tj := 0.5 * float64(j)
			f.Records = append(f.Records, dataset.Record{T: tj, Value: math.Exp(-0.7 * tj)})
		}
		lbFiles = append(lbFiles, f)
	}
	lpt := estimator.Config{Ranks: 2, Policy: sched.PolicyLPT}

	// run_batch_v1.ckpt was written by a 2-rank fit on the lpt schedule
	// whose lanes solved their files as one lockstep batch, interrupted
	// at iteration 2 after an injected one-attempt file fault sent the
	// batch to the per-file path, from before per-file solves became the
	// only kind: its degradation ledger carries the retired batch→serial
	// count (1), which decoding skips.
	batch := loadRunState(t, "run_batch_v1.ckpt")

	// run_ewma_v1.ckpt was written by a 2-rank fit on the ewma schedule
	// (Alpha 0.5, two work-stealing lanes per rank, no splits) under
	// injected slow-lane jitter, interrupted at iteration 2, from before
	// the EWMA cost model, the lanes and the slow-lane injectors were
	// retired: its estimator state carries cost, sched_policy "ewma" and
	// mispredicts keys and per-item Lo/Hi/Seq fields.
	ewma := loadRunState(t, "run_ewma_v1.ckpt")

	// run_hang_v1.ckpt was written by a 2-rank lpt fit interrupted at
	// iteration 2, from before the per-attempt watchdog and the hang and
	// timeout injectors were retired: its degradation ledger carries
	// SolveTimeouts 1 from an injected timeout that already fired.
	hang := loadRunState(t, "run_hang_v1.ckpt")
	if hang.Est.Recovery.Retries != 1 || hang.Est.Degrade != (estimator.DegradeStats{}) {
		t.Errorf("hang estimator state: recovery %+v, degrade %+v; want the one retry and no demotion",
			hang.Est.Recovery, hang.Est.Degrade)
	}

	// Each restores into the lpt estimator, and the next objective call
	// equals a fresh estimator's bit for bit.
	next := func(name string, st *estimator.State, x []float64, plans [][]int) []float64 {
		t.Helper()
		e, err := estimator.New(model, lbFiles, lpt)
		if err != nil {
			t.Fatal(err)
		}
		if st != nil {
			if err := e.Restore(*st); err != nil {
				t.Fatalf("restore of the %s estimator state: %v", name, err)
			}
			if e.Calls() != 5 || !reflect.DeepEqual(planFiles(e.Plans()), plans) {
				t.Errorf("%s: restored calls %d, plans %v; want 5, %v", name, e.Calls(), planFiles(e.Plans()), plans)
			}
		}
		r := make([]float64, e.ResidualDim())
		if err := e.Objective(x, r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, c := range []struct {
		name  string
		st    *RunState
		plans [][]int
	}{
		{"load-balanced", &lb, [][]int{{0}, {2, 1}}},
		{"batch", &batch, [][]int{{0}, {2, 1}}},
		{"ewma", &ewma, [][]int{{0}, {1, 2}}},
		{"hang", &hang, [][]int{{0}, {2, 1}}},
	} {
		x := c.st.Opt.X
		if got, want := next(c.name, &c.st.Est, x, c.plans), next(c.name, nil, x, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed call %v, fresh estimator %v", c.name, got, want)
		}
	}
}

// planFiles lists each rank's planned file indices.
func planFiles(plans [][]sched.Item) [][]int {
	out := make([][]int, len(plans))
	for r, plan := range plans {
		for _, it := range plan {
			out[r] = append(out[r], it.File)
		}
	}
	return out
}
