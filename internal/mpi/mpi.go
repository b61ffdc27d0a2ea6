// Package mpi is a message-passing runtime with MPI's collective
// semantics, implemented over goroutines and channels. It stands in for
// the MPI library of the paper's parallel parameter estimator (Fig. 9):
// ranks are goroutines, and the one collective the objective function
// needs — a summing AllReduce over per-file errors — must be called by
// every rank of the communicator, exactly as in MPI.
//
// On the paper's IBM SP each rank was one processor of one node; here
// ranks share a machine, so speedups are reported both as wall time and
// as modeled parallel time (the per-rank critical path), the quantity
// Table 2 measures on hardware where every rank really owns a CPU.
//
// RunErr starts a communicator: rank functions return errors, rank
// panics are captured instead of re-raised, and the caller receives a
// per-rank RunReport it can use to recover (the estimator's
// shrink-and-retry protocol). A configurable watchdog converts a stuck
// collective — a deadlocked communicator — into a diagnosed error with a
// per-rank state dump instead of a hang, and a Hook consulted at every
// collective entry is the seam deterministic fault injection (package
// faults) plugs into.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rms/internal/budget"
	"rms/internal/telemetry"
)

// HookAction is a Hook's verdict on a rank entering a collective.
type HookAction int

const (
	// ActProceed lets the collective run normally.
	ActProceed HookAction = iota
	// ActCrash makes the rank panic at the collective entry, simulating
	// a process death mid-protocol.
	ActCrash
	// ActStall blocks the rank forever (until the communicator dies),
	// simulating a wedged process — the deadlock the watchdog exists to
	// diagnose.
	ActStall
)

// Hook intercepts ranks at collective entry. AtCollective is invoked by
// each rank as it enters its seq-th collective (0-based, counted per
// rank within one RunErr); implementations must be safe for
// concurrent use by all ranks.
type Hook interface {
	AtCollective(rank, seq int) HookAction
}

// RunConfig tunes a communicator's fault-tolerance machinery.
type RunConfig struct {
	// Watchdog, when positive, bounds how long the communicator may sit
	// with every live rank blocked inside the runtime and no progress.
	// When exceeded, the watchdog snapshots per-rank states, aborts the
	// communicator, and the report carries WatchdogFired plus the dump.
	// Zero disables the watchdog.
	Watchdog time.Duration
	// Hook, when non-nil, is consulted at every collective entry (fault
	// injection; see package faults).
	Hook Hook
	// Trace, when non-nil, gives every rank a telemetry lane named
	// "rank N" (reused across runs of equal rank) and records a span for
	// each blocking collective wait, so a Chrome trace shows per-rank
	// wait-time gaps and the text summary attributes communicator
	// imbalance.
	Trace *telemetry.Tracer
	// Budget, when non-nil, bounds the whole communicator: when it trips,
	// the run aborts exactly like a watchdog trip — per-rank states are
	// snapshotted, ranks blocked in collectives unwind — but every
	// released rank's report error carries the budget's cause (matching
	// budget.ErrExhausted), and none of them count as Culprits, so
	// recovery protocols do not mistake a cancellation for a dead rank.
	Budget *budget.Budget
	// Log, when non-nil, records communicator failure events — watchdog
	// firings (carrying the per-rank state dump), rank panics, injected
	// stalls, budget releases — in the flight recorder. The happy path
	// never logs.
	Log *telemetry.Logger
}

// RankState is one rank's state in a RunReport: the live snapshot taken
// when the watchdog fired, or the final state otherwise.
type RankState struct {
	Rank int
	// Phase describes what the rank was doing ("running", "AllReduce #3",
	// "stalled before AllReduce #0 (injected)", ...).
	Phase string
	// Waiting reports the rank was blocked inside a collective.
	Waiting bool
	// Stalled reports an injected stall (Hook returned ActStall).
	Stalled bool
	// Done reports the rank's function had returned or panicked.
	Done bool
	// Collectives counts the collectives the rank completed.
	Collectives int
	// LastCollective names the most recently *completed* collective
	// ("AllReduce #3"; empty before the first). In a deadlock dump it
	// pins where each rank's protocol sequence diverged — the blocked
	// rank whose LastCollective trails its peers is the one that took a
	// different path.
	LastCollective string
	// LastDoneNs is the telemetry-clock timestamp (telemetry.Now) at
	// which LastCollective completed; 0 before the first completion.
	LastDoneNs int64
	// WaitNs is the total time the rank has spent blocked inside runtime
	// primitives — the per-rank wait attribution that quantifies
	// communicator imbalance.
	WaitNs int64
}

// RunReport is RunErr's per-rank outcome.
type RunReport struct {
	// Size is the communicator size.
	Size int
	// Errs has one entry per rank; nil means the rank returned cleanly.
	// Ranks that merely aborted in sympathy with a failed peer carry
	// errors matching ErrAborted (or ErrWatchdog after a watchdog trip).
	Errs []error
	// WatchdogFired reports the watchdog aborted a stuck communicator.
	WatchdogFired bool
	// States is the per-rank state dump: the deadlock snapshot when the
	// watchdog fired, the final states otherwise.
	States []RankState
}

// OK reports a fully clean run.
func (r *RunReport) OK() bool {
	for _, e := range r.Errs {
		if e != nil {
			return false
		}
	}
	return true
}

// Culprits returns the ranks responsible for a failure: ranks whose
// error is primary (a panic, a returned error, an injected crash or stall)
// rather than a sympathetic ErrAborted/ErrWatchdog release. Recovery
// protocols treat these ranks as dead and redistribute their work.
func (r *RunReport) Culprits() []int {
	var out []int
	for rank, e := range r.Errs {
		if e == nil || errors.Is(e, ErrAborted) || errors.Is(e, ErrWatchdog) || budget.Exhausted(e) {
			continue
		}
		out = append(out, rank)
	}
	return out
}

// Err returns the most diagnostic single error of the run: the first
// culprit's error, else the first error of any kind, else nil.
func (r *RunReport) Err() error {
	if c := r.Culprits(); len(c) > 0 {
		return r.Errs[c[0]]
	}
	for _, e := range r.Errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// describe renders one rank's line of a state dump: its phase, its last
// completed collective with the telemetry-clock timestamp, and its total
// wait — where and when the rank's protocol sequence stopped advancing.
func (st RankState) describe() string {
	last := "none"
	if st.LastCollective != "" {
		last = fmt.Sprintf("%s at +%.3fs", st.LastCollective, float64(st.LastDoneNs)/1e9)
	}
	return fmt.Sprintf("%s (collectives done %d, last %s, waited %.3fs)",
		st.Phase, st.Collectives, last, float64(st.WaitNs)/1e9)
}

// ErrAborted marks the sympathetic errors on ranks released from a
// blocking call after a peer died (an MPI job with a dead rank aborts
// the communicator).
var ErrAborted = errors.New("mpi: communicator aborted (peer rank died)")

// ErrWatchdog marks the errors on ranks released by the hang watchdog.
var ErrWatchdog = errors.New("mpi: watchdog: stuck collective aborted")

// RankError is the primary error recorded for a rank whose function
// panicked.
type RankError struct {
	Rank int
	// Val is the original panic value.
	Val any
}

func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Val)
}

// Comm is one rank's handle on the communicator.
type Comm struct {
	rank  int
	world *world
}

type rankState struct {
	mu          sync.Mutex
	phase       string
	waiting     bool
	stalled     bool
	done        bool
	collectives int
	// lastDoneNs is when (telemetry clock) the most recently completed
	// collective, number collectives-1, finished.
	lastDoneNs int64
	// waitNs accumulates completed blocking time; waitStart is the entry
	// timestamp of the wait in flight (0 when not waiting).
	waitNs    int64
	waitStart int64
}

type world struct {
	size int
	// collective plumbing: every rank sends to rank 0, rank 0 answers.
	up   []chan []float64
	down []chan []float64
	// dead closes when any rank panics or returns an error (or the
	// watchdog or the budget fires), releasing peers blocked in
	// collectives.
	dead     chan struct{}
	deadOnce sync.Once

	hook Hook
	// lanes has one telemetry lane per rank; entries are nil (no-op)
	// unless the run was configured with a Tracer.
	lanes []*telemetry.Lane
	// activity counts runtime events (collective entries/exits, value
	// transfers); the watchdog watches it for progress.
	activity      atomic.Int64
	states        []*rankState
	watchdogFired atomic.Bool
	budgetFired   atomic.Bool
	budget        *budget.Budget
	log           *telemetry.Logger
	dumpMu        sync.Mutex
	dump          []RankState
}

// abortError marks the secondary panics raised on ranks released from a
// blocking call after a peer died; reports carry ErrAborted/ErrWatchdog
// for them instead.
type abortError struct{}

func (abortError) Error() string { return "mpi: communicator aborted (peer rank died)" }

// stallError unwinds a rank whose injected stall ended with the
// communicator's death.
type stallError struct{ seq int }

// RunErr starts a communicator of the given size and invokes fn once per
// rank, each on its own goroutine, then waits for all ranks to return
// and reports per-rank outcomes instead of panicking. A rank panic or a
// returned error aborts the communicator (peers blocked in a collective
// unwind with ErrAborted); a panic surfaces as a RankError for that
// rank, a returned error as itself. cfg arms the watchdog and the
// injection hook.
func RunErr(size int, cfg RunConfig, fn func(c *Comm) error) *RunReport {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid communicator size %d", size))
	}
	w := &world{size: size, hook: cfg.Hook, log: cfg.Log}
	w.up = make([]chan []float64, size)
	w.down = make([]chan []float64, size)
	w.states = make([]*rankState, size)
	w.lanes = make([]*telemetry.Lane, size)
	for i := 0; i < size; i++ {
		w.up[i] = make(chan []float64, 1)
		w.down[i] = make(chan []float64, 1)
		w.states[i] = &rankState{phase: "running"}
		if cfg.Trace != nil {
			// Lanes are keyed by name, so shrink-and-retry reruns reuse
			// one timeline row per rank instead of sprouting new ones.
			w.lanes[i] = cfg.Trace.Lane(fmt.Sprintf("rank %d", i))
		}
	}
	w.dead = make(chan struct{})

	stop := make(chan struct{})
	if cfg.Watchdog > 0 {
		go w.watchdog(cfg.Watchdog, stop)
	}
	if cfg.Budget != nil {
		w.budget = cfg.Budget
		// The budget watcher mirrors the watchdog's abort protocol: dump
		// first (so diagnostics show where every rank was when the budget
		// tripped), then release the communicator.
		go func() {
			select {
			case <-stop:
			case <-w.dead:
			case <-cfg.Budget.Done():
				w.dumpMu.Lock()
				w.dump = w.snapshot()
				w.dumpMu.Unlock()
				w.budgetFired.Store(true)
				w.log.Warn("budget_release", "communicator released by budget trip",
					"ranks", size)
				w.deadOnce.Do(func() { close(w.dead) })
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				p := recover()
				st := w.states[rank]
				st.mu.Lock()
				st.done = true
				st.waiting = false
				switch {
				case p != nil || errs[rank] != nil:
					st.phase = "failed"
				default:
					st.phase = "done"
				}
				st.mu.Unlock()
				w.activity.Add(1)
				switch v := p.(type) {
				case nil:
				case abortError:
					switch {
					case w.budgetFired.Load():
						errs[rank] = fmt.Errorf("%w (mpi: rank %d released)", w.budget.Err(), rank)
					case w.watchdogFired.Load():
						errs[rank] = fmt.Errorf("%w (rank %d released)", ErrWatchdog, rank)
					default:
						errs[rank] = fmt.Errorf("%w (rank %d released)", ErrAborted, rank)
					}
				case stallError:
					errs[rank] = fmt.Errorf("mpi: rank %d stalled at collective %d (injected fault)", rank, v.seq)
					w.log.Warn("stall", "rank stalled at collective",
						"rank", rank, "collective", v.seq)
				default:
					errs[rank] = &RankError{Rank: rank, Val: p}
					w.log.Error("rank_panic", "rank panicked",
						"rank", rank, "value", fmt.Sprint(p))
					// Unblock peers waiting in collectives.
					w.deadOnce.Do(func() { close(w.dead) })
				}
			}()
			if err := fn(&Comm{rank: rank, world: w}); err != nil {
				errs[rank] = err
				// A rank that gives up releases its peers as a dead one does:
				// they would otherwise wait in a collective it never joins.
				w.deadOnce.Do(func() { close(w.dead) })
			}
		}(r)
	}
	wg.Wait()
	close(stop)

	rep := &RunReport{Size: size, Errs: errs, WatchdogFired: w.watchdogFired.Load()}
	w.dumpMu.Lock()
	if w.dump != nil {
		rep.States = w.dump
	}
	w.dumpMu.Unlock()
	if rep.States == nil {
		rep.States = w.snapshot()
	}
	return rep
}

// watchdog aborts the communicator when every live rank has been blocked
// inside a collective with no progress for a full window — a state
// nothing internal can ever change, i.e. a deadlock. Ranks wedged in
// user code are indistinguishable from slow computation and are not
// flagged; the all-blocked rule keeps false positives impossible. Its
// error event carries the per-rank state dump, one field per rank, so
// the flight recorder's post-mortem shows where every rank stood.
func (w *world) watchdog(limit time.Duration, stop chan struct{}) {
	tick := limit / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := w.activity.Load()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-w.dead:
			return
		case <-t.C:
		}
		if a := w.activity.Load(); a != last {
			last, lastChange = a, time.Now()
			continue
		}
		if time.Since(lastChange) < limit || !w.deadlocked() {
			continue
		}
		dump := w.snapshot()
		w.dumpMu.Lock()
		w.dump = dump
		w.dumpMu.Unlock()
		w.watchdogFired.Store(true)
		kv := []any{"ranks", w.size, "limit", limit.String()}
		for _, st := range dump {
			kv = append(kv, fmt.Sprintf("rank%d", st.Rank), st.describe())
		}
		w.log.Error("watchdog", "deadlock watchdog fired — aborting communicator", kv...)
		w.deadOnce.Do(func() { close(w.dead) })
		return
	}
}

// deadlocked reports whether at least one rank is blocked and no live
// rank is outside a blocking point (where it could still make progress).
func (w *world) deadlocked() bool {
	any := false
	for _, st := range w.states {
		st.mu.Lock()
		waiting, done := st.waiting, st.done
		st.mu.Unlock()
		if done {
			continue
		}
		if !waiting {
			return false
		}
		any = true
	}
	return any
}

func (w *world) snapshot() []RankState {
	now := telemetry.Now()
	out := make([]RankState, w.size)
	for r, st := range w.states {
		st.mu.Lock()
		out[r] = RankState{
			Rank:        r,
			Phase:       st.phase,
			Waiting:     st.waiting,
			Stalled:     st.stalled,
			Done:        st.done,
			Collectives: st.collectives,
			LastDoneNs:  st.lastDoneNs,
			WaitNs:      st.waitNs,
		}
		if st.collectives > 0 {
			out[r].LastCollective = fmt.Sprintf("AllReduce #%d", st.collectives-1)
		}
		if st.waiting && st.waitStart > 0 {
			// Charge the wait in flight so a deadlock dump shows how long
			// each rank has already been stuck, not just completed waits.
			out[r].WaitNs += now - st.waitStart
		}
		st.mu.Unlock()
	}
	return out
}

// enterWait marks the rank blocked inside a collective. phase is the
// seq-numbered label for state dumps; span is the bare name
// ("AllReduce") under which the telemetry lane aggregates wait time.
func (w *world) enterWait(rank int, phase, span string) {
	st := w.states[rank]
	st.mu.Lock()
	st.phase = phase
	st.waiting = true
	st.waitStart = telemetry.Now()
	st.mu.Unlock()
	w.activity.Add(1)
	w.lanes[rank].Begin(span)
}

// abortWait unwinds a rank blocked in a collective when the
// communicator dies. Closing the wait span (via leaveWait) before the
// panic matters because lanes are keyed by name and reused across
// shrink-and-retry reruns: a leaked Begin would nest every later span of
// the reused "rank N" lane one level too deep, corrupting the exported
// trace of cancelled runs.
func (w *world) abortWait(rank int) {
	w.leaveWait(rank)
	panic(abortError{})
}

func (w *world) leaveWait(rank int) {
	w.lanes[rank].End()
	st := w.states[rank]
	st.mu.Lock()
	st.phase = "running"
	st.waiting = false
	if st.waitStart > 0 {
		st.waitNs += telemetry.Now() - st.waitStart
		st.waitStart = 0
	}
	st.mu.Unlock()
	w.activity.Add(1)
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Lane returns this rank's telemetry lane (nil unless the run was
// configured with a Tracer), letting rank code record application-level
// spans — per-file solves, say — on the same timeline row as the
// runtime's wait spans.
func (c *Comm) Lane() *telemetry.Lane { return c.world.lanes[c.rank] }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.world.size }

// AllReduce sums every rank's vector element-wise and returns the sum on
// every rank — MPI_Allreduce with MPI_SUM, the reduction of Fig. 9's
// error vector. It must be called by all ranks, and all vectors must
// share a length. Rank 0 gathers the vectors and adds them in rank
// order, so the result does not depend on arrival order.
func (c *Comm) AllReduce(local []float64) []float64 {
	w := c.world
	st := w.states[c.rank]
	st.mu.Lock()
	seq := st.collectives
	st.mu.Unlock()
	if w.hook != nil {
		switch w.hook.AtCollective(c.rank, seq) {
		case ActCrash:
			panic(fmt.Sprintf("injected crash at collective %d", seq))
		case ActStall:
			st.mu.Lock()
			st.phase = fmt.Sprintf("stalled before AllReduce #%d (injected)", seq)
			st.waiting = true
			st.stalled = true
			st.waitStart = telemetry.Now()
			st.mu.Unlock()
			w.activity.Add(1)
			// The span is never ended; trace export closes it, so the
			// stall shows as a wait stretching to the communicator's death.
			w.lanes[c.rank].Begin("stall (injected)")
			<-w.dead
			panic(stallError{seq: seq})
		}
	}
	w.enterWait(c.rank, fmt.Sprintf("AllReduce #%d", seq), "AllReduce")
	var sum []float64
	if c.rank == 0 {
		sum = append([]float64(nil), local...)
		for r := 1; r < w.size; r++ {
			select {
			case xs := <-w.up[r]:
				w.activity.Add(1)
				if len(xs) != len(sum) {
					panic(fmt.Sprintf("mpi: AllReduce length mismatch: %d vs %d", len(xs), len(sum)))
				}
				for i, x := range xs {
					sum[i] += x
				}
			case <-w.dead:
				w.abortWait(c.rank)
			}
		}
		for r := 1; r < w.size; r++ {
			select {
			case w.down[r] <- sum:
				w.activity.Add(1)
			case <-w.dead:
				w.abortWait(c.rank)
			}
		}
	} else {
		select {
		case w.up[c.rank] <- local:
			w.activity.Add(1)
		case <-w.dead:
			w.abortWait(c.rank)
		}
		select {
		case sum = <-w.down[c.rank]:
			w.activity.Add(1)
		case <-w.dead:
			w.abortWait(c.rank)
		}
	}
	w.leaveWait(c.rank)
	st.mu.Lock()
	st.collectives++
	st.lastDoneNs = telemetry.Now()
	st.mu.Unlock()
	// Each rank gets its own copy so later mutation stays rank-local.
	return append([]float64(nil), sum...)
}
