package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/faults"
	"rms/internal/nlopt"
	"rms/internal/sched"
)

type demoState struct {
	Name  string    `json:"name"`
	Iter  int       `json:"iter"`
	Theta []float64 `json:"theta"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	in := demoState{Name: "demo", Iter: 7, Theta: []float64{1.5, -2.25, 0.125}}
	if err := Save(path, "demo", in); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Iter != in.Iter || len(out.Theta) != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i, v := range in.Theta {
		if out.Theta[i] != v {
			t.Fatalf("theta[%d] = %v, want %v", i, out.Theta[i], v)
		}
	}
}

func TestMarshalIsDeterministic(t *testing.T) {
	in := demoState{Name: "demo", Iter: 3, Theta: []float64{0.1, 0.2}}
	a, err := Marshal("demo", in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal("demo", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical payloads produced different checkpoint bytes")
	}
}

func TestLoadRejectsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Name: "demo", Iter: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte without breaking the JSON frame.
	mut := strings.Replace(string(data), `"iter":1`, `"iter":2`, 1)
	if mut == string(data) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	var out demoState
	err = Load(path, "demo", &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload loaded: err = %v", err)
	}
}

func TestLoadRejectsWrongKindAndVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{}); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "other", &out); err == nil {
		t.Error("wrong kind accepted")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, "demo", &out); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestLoadRejectsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Name: "demo", Theta: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	for i := 0; i < 3; i++ {
		if err := Save(path, "demo", demoState{Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "fit.ckpt" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only fit.ckpt", names)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "demo", demoState{Iter: 2}); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err != nil {
		t.Fatal(err)
	}
	if out.Iter != 2 {
		t.Errorf("Iter = %d, want 2 (latest write)", out.Iter)
	}
}

func TestRunStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	plan := faults.NewPlan(42).FailFile(1, 3).FlakyFile(0, 5, 1)
	ps := plan.Snapshot()
	in := RunState{
		Opt:    nlopt.CheckState{Iter: 4, X: []float64{0.5, 1.5}, Lambda: 1e-3, RNorm: 0.25},
		Faults: &ps,
	}
	in.Est.Calls = 9
	in.Est.LastTimes = []float64{10, 20}
	if err := SaveRun(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Opt.Iter != 4 || out.Opt.Lambda != 1e-3 || len(out.Opt.X) != 2 {
		t.Errorf("optimizer state mismatch: %+v", out.Opt)
	}
	if out.Est.Calls != 9 || len(out.Est.LastTimes) != 2 {
		t.Errorf("estimator state mismatch: %+v", out.Est)
	}
	if out.Faults == nil {
		t.Fatal("fault plan dropped")
	}
	restored := faults.FromState(*out.Faults).Snapshot()
	a, _ := Marshal("plan", ps)
	b, _ := Marshal("plan", restored)
	if !bytes.Equal(a, b) {
		t.Error("fault plan did not survive the round trip canonically")
	}

	// A run checkpoint written before the intra-rank worker pools were
	// retired: its estimator state carries the pool→serial latch
	// (pools_off) and demotion count (Degrade.PoolSerial), its fault plan
	// a pending pool fault (pool). The envelope version is unchanged and
	// payloads decode with plain json.Unmarshal, which skips the retired
	// keys, so the checkpoint still restores.
	old, err := LoadRun(filepath.Join("testdata", "run_pools_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
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
	if old.Faults == nil {
		t.Fatal("fault plan dropped")
	}
	oldPlan := faults.FromState(*old.Faults)
	if err := oldPlan.FileSolve(6, 0, 1, 0); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("pending file failure lost in restore: %v", err)
	}

	// A run checkpoint written by a 2-rank load-balanced fit, interrupted
	// at iteration 2, from before the lpt policy replaced the load-balance
	// flag: its estimator state holds a legacy assignment and no cost
	// model, which the lpt estimator restores as whole-file plans.
	lb, err := LoadRun(filepath.Join("testdata", "run_lb_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
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

	// A run checkpoint written by a 2-rank fit on the lpt schedule whose
	// lanes solved their files as one lockstep batch, interrupted at
	// iteration 2 after an injected one-attempt file fault sent the batch
	// to the per-file path, from before per-file solves became the only
	// kind: its degradation ledger carries the retired batch→serial count
	// (1), which decoding skips.
	batch, err := LoadRun(filepath.Join("testdata", "run_batch_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	// A run checkpoint written by a 2-rank fit on the ewma schedule
	// (Alpha 0.5, two work-stealing lanes per rank, no splits) under
	// injected slow-lane jitter, interrupted at iteration 2, from before
	// the EWMA cost model, the lanes and the slow-lane injectors were
	// retired: its estimator state carries cost, sched_policy "ewma" and
	// mispredicts keys and per-item Lo/Hi/Seq fields, its fault plan
	// slow_rate, slow_max and counts.SlowLanes. Decoding skips them all.
	ewma, err := LoadRun(filepath.Join("testdata", "run_ewma_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if ewma.Faults == nil {
		t.Fatal("ewma fault plan dropped")
	}
	ewmaPlan := faults.FromState(*ewma.Faults)
	if st := ewmaPlan.Snapshot(); st.Seed != 7 || st.Counts != (faults.Counts{}) {
		t.Errorf("rebuilt ewma fault plan %+v, want seed 7 and no fired injections", st)
	}

	// A run checkpoint written by a 2-rank lpt fit interrupted at
	// iteration 2, from before the per-attempt watchdog and the hang and
	// timeout injectors were retired: its degradation ledger carries
	// SolveTimeouts 1 from an injected timeout that already fired, and its
	// fault plan a fired timeout entry, a pending hang entry and their
	// counts. Decoding skips them all.
	hang, err := LoadRun(filepath.Join("testdata", "run_hang_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if hang.Faults == nil {
		t.Fatal("hang fault plan dropped")
	}
	hangPlan := faults.FromState(*hang.Faults)
	if st := hangPlan.Snapshot(); st.Seed != 5 || st.Counts != (faults.Counts{}) || st.FileFail != nil {
		t.Errorf("rebuilt hang fault plan %+v, want seed 5 and nothing scheduled or fired", st)
	}
	if hang.Est.Recovery.Retries != 1 || hang.Est.Degrade != (estimator.DegradeStats{}) {
		t.Errorf("hang estimator state: recovery %+v, degrade %+v; want the one retry and no demotion",
			hang.Est.Recovery, hang.Est.Degrade)
	}

	// Each restores into the lpt estimator — the ewma and hang ones with
	// their rebuilt fault plans attached — and the next objective call
	// equals a fresh estimator's bit for bit.
	next := func(name string, st *estimator.State, cfg estimator.Config, x []float64, plans [][]int) []float64 {
		t.Helper()
		e, err := estimator.New(model, lbFiles, cfg)
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
	withFaults := lpt
	withFaults.Faults = ewmaPlan
	withHang := lpt
	withHang.Faults = hangPlan
	for _, c := range []struct {
		name  string
		st    *RunState
		cfg   estimator.Config
		plans [][]int
	}{
		{"load-balanced", &lb, lpt, [][]int{{0}, {2, 1}}},
		{"batch", &batch, lpt, [][]int{{0}, {2, 1}}},
		{"ewma", &ewma, withFaults, [][]int{{0}, {1, 2}}},
		{"hang", &hang, withHang, [][]int{{0}, {2, 1}}},
	} {
		x := c.st.Opt.X
		if got, want := next(c.name, &c.st.Est, c.cfg, x, c.plans), next(c.name, nil, lpt, x, nil); !reflect.DeepEqual(got, want) {
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
