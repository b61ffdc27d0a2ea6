package service

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"rms/internal/telemetry"
)

// TestCompileSingleflight hammers one spec from many goroutines and
// checks the engine compiled exactly once — the joiners wait on the
// winner's flight instead of duplicating work — and that every caller
// got the same compiled artifacts.
func TestCompileSingleflight(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := NewEngine(reg, nil)
	spec := testSpec()

	const N = 32
	var wg sync.WaitGroup
	models := make([]*CompiledModel, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			models[i], _, errs[i] = eng.Compile(spec, nil)
		}(i)
	}
	wg.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if models[i] != models[0] {
			t.Fatalf("goroutine %d got a different *CompiledModel", i)
		}
	}
	if got := reg.Counter("service.compilations").Value(); got != 1 {
		t.Fatalf("compilations = %d, want 1 (singleflight)", got)
	}
	hits := reg.Counter("service.cache_hits").Value()
	misses := reg.Counter("service.cache_misses").Value()
	if misses != 1 || hits != N-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, N-1)
	}
}

// TestCompileManySpecsConcurrently mixes distinct specs across
// goroutines: each distinct content address compiles once.
func TestCompileManySpecsConcurrently(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := NewEngine(reg, nil)

	const specs, per = 4, 8
	var wg sync.WaitGroup
	for s := 0; s < specs; s++ {
		spec := testSpec()
		spec.RCIP = fmt.Sprintf("K_d = %d", s+1)
		for g := 0; g < per; g++ {
			wg.Add(1)
			go func(spec ModelSpec) {
				defer wg.Done()
				if _, _, err := eng.Compile(spec, nil); err != nil {
					t.Error(err)
				}
			}(spec)
		}
	}
	wg.Wait()
	if got := reg.Counter("service.compilations").Value(); got != specs {
		t.Fatalf("compilations = %d, want %d", got, specs)
	}
	if got := eng.Models(); got != specs {
		t.Fatalf("cached models = %d, want %d", got, specs)
	}
}

// TestConcurrentSimulateSharedModel runs many simulates against ONE
// cached model concurrently — on both the dense path and the sparse
// path that forks the shared symbolic LU — and checks every trajectory
// is bit-identical to a serial baseline. Interleaved solver state or a
// shared numeric factorization would show up here (and under -race).
func TestConcurrentSimulateSharedModel(t *testing.T) {
	eng := NewEngine(nil, nil)
	cm, _, err := eng.Compile(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sparse := range []bool{false, true} {
		name := "dense"
		if sparse {
			name = "sparse-lu-fork"
		}
		t.Run(name, func(t *testing.T) {
			req := SimulateRequest{TEnd: 1, Points: 9, Sparse: sparse}
			base, err := RunSimulate(cm, req, SimOpts{})
			if err != nil {
				t.Fatal(err)
			}
			const N = 16
			var wg sync.WaitGroup
			results := make([]*SimulateResult, N)
			errs := make([]error, N)
			for i := 0; i < N; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = RunSimulate(cm, req, SimOpts{})
				}(i)
			}
			wg.Wait()
			for i := 0; i < N; i++ {
				if errs[i] != nil {
					t.Fatalf("goroutine %d: %v", i, errs[i])
				}
				if len(results[i].Rows) != len(base.Rows) {
					t.Fatalf("goroutine %d: %d rows vs %d", i, len(results[i].Rows), len(base.Rows))
				}
				for r := range base.Rows {
					for c := range base.Rows[r] {
						if math.Float64bits(results[i].Rows[r][c]) != math.Float64bits(base.Rows[r][c]) {
							t.Fatalf("goroutine %d diverged at row %d col %d: %g vs %g",
								i, r, c, results[i].Rows[r][c], base.Rows[r][c])
						}
					}
				}
			}
		})
	}
}

// TestConcurrentFitSharedModel runs concurrent fits against one cached
// model (each forks the shared symbolic LU through its estimator) and
// checks bit-identical outcomes.
func TestConcurrentFitSharedModel(t *testing.T) {
	eng := NewEngine(nil, nil)
	cm, _, err := eng.Compile(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	df := DataFile{Name: "synth"}
	for i := 0; i < 8; i++ {
		df.T = append(df.T, 0.1*float64(i+1))
		df.V = append(df.V, math.Exp(-2*0.1*float64(i+1)))
	}
	req := FitRequest{
		Data: []DataFile{df}, Property: "sum",
		MaxIter: 3, RelStep: 1e-4,
		Start: []float64{1}, Lower: []float64{0.2}, Upper: []float64{20},
	}
	run := func() (FitResult, error) {
		out, err := RunFit(cm, req, FitOpts{})
		if err != nil {
			return FitResult{}, err
		}
		defer out.Est.Close()
		return out.Result(cm.ID), nil
	}
	base, err := run()
	if err != nil {
		t.Fatal(err)
	}
	const N = 8
	var wg sync.WaitGroup
	results := make([]FitResult, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if math.Float64bits(results[i].X[0]) != math.Float64bits(base.X[0]) ||
			math.Float64bits(results[i].RNorm) != math.Float64bits(base.RNorm) {
			t.Fatalf("goroutine %d diverged: x=%v rnorm=%v vs x=%v rnorm=%v",
				i, results[i].X, results[i].RNorm, base.X, base.RNorm)
		}
	}
}

// TestQueueSubmitRace races submissions against a draining queue; the
// invariant is every accepted job reaches a terminal state and every
// rejection is one of the two documented errors.
func TestQueueSubmitRace(t *testing.T) {
	q := NewQueue(4, 2)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []*Job
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := q.Submit("noop", 0, func(*Job) (any, error) { return nil, nil })
			switch err {
			case nil:
				mu.Lock()
				accepted = append(accepted, j)
				mu.Unlock()
			case ErrBusy, ErrShuttingDown:
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	wg.Wait()
	if !q.Shutdown(10 * time.Second) {
		// Noop jobs cannot legitimately outlive a drain that waits for
		// the workers; report loudly.
		t.Fatal("queue drain was unclean")
	}
	for _, j := range accepted {
		<-j.Done()
		if st := j.View().Status; st != "done" {
			t.Fatalf("job %s ended %s", j.ID, st)
		}
	}
}

// TestJobsNewestFirst lists more than nine jobs: job-10 must come
// before job-9 (numeric order, not the IDs' string order).
func TestJobsNewestFirst(t *testing.T) {
	q := NewQueue(16, 1)
	defer q.Shutdown(10 * time.Second)
	for i := 0; i < 12; i++ {
		if _, err := q.Submit("noop", 0, func(*Job) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	views := q.Jobs()
	if len(views) != 12 {
		t.Fatalf("listed %d jobs, want 12", len(views))
	}
	for i, v := range views {
		if want := fmt.Sprintf("job-%d", 12-i); v.ID != want {
			t.Fatalf("position %d lists %s, want %s (newest first)", i, v.ID, want)
		}
	}
}
