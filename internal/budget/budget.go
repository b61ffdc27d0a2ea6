// Package budget provides the robustness layer's run-budget primitive:
// a deadline and a cooperative cancel token in one handle, threaded
// through every long-running path of the fit pipeline (estimator
// objective calls, the BDF/RKV65 step loops, the LM outer iteration and
// the mpi collectives).
//
// Design rules, in the spirit of the nil-safe telemetry registry:
//
//   - a nil *Budget is the disabled state: Check returns nil, Done
//     returns a nil channel (blocks forever in a select) — instrumented
//     code pays nothing when budgets are off;
//   - Check takes no lock: one atomic add and one atomic load per budget
//     in the parent chain, so per-step checks in the solvers stay far
//     under the 1% overhead bar;
//   - exhaustion is sticky and carries a reason: once tripped, every
//     subsequent Check returns the same error, and cooperative callers
//     unwind returning well-formed partial results;
//   - wall-clock deadlines are the only non-deterministic trigger, and
//     tests use Cancel instead.
package budget

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rms/internal/telemetry"
)

// ErrExhausted is the base class of every budget trip; errors.Is against
// it identifies "the budget ended this work" across all trip causes.
var ErrExhausted = errors.New("budget: exhausted")

// The two trip causes, each wrapping ErrExhausted.
var (
	// ErrCancelled reports an explicit Cancel call (SIGINT handler, a
	// caller abandoning the job, an injected cancellation).
	ErrCancelled = fmt.Errorf("%w: cancelled", ErrExhausted)
	// ErrDeadline reports the wall-clock deadline passing.
	ErrDeadline = fmt.Errorf("%w: deadline exceeded", ErrExhausted)
)

// state values for Budget.state.
const (
	stActive int32 = iota
	stCancelled
	stDeadline
)

// Budget is a deadline + cancel token. The zero value is not usable;
// construct with New. All methods are safe for concurrent use by every
// rank, lane and worker of a run, and all methods are no-ops on a nil
// receiver.
type Budget struct {
	state  atomic.Int32
	checks atomic.Int64 // Check call count (overhead accounting)
	// reason is the trip's reason, written under mu before state
	// publishes the trip, so a reader that sees the trip sees it too.
	reason string

	// log, when set, records the trip in the flight recorder: Cancel at
	// info level (an ordinary shutdown), a deadline trip at error level —
	// the post-mortem trigger. Set once at wiring time (WithLogger),
	// before the budget is shared.
	log *telemetry.Logger
	// parent, when non-nil, is consulted by Check and Err before local
	// state: a per-job child budget trips on its own deadline without
	// ending the server, while a tripped parent ends every child
	// immediately. Set once at wiring time (WithParent), before the
	// budget is shared, so Check and Err read it without a lock.
	parent *Budget

	mu    sync.Mutex
	done  chan struct{}
	timer *time.Timer
}

// New returns an active budget with no deadline.
func New() *Budget {
	return &Budget{done: make(chan struct{})}
}

// WithDeadline arms a wall-clock deadline d from now and returns the
// budget. A non-positive d is ignored.
func (b *Budget) WithDeadline(d time.Duration) *Budget {
	if b == nil || d <= 0 {
		return b
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.timer != nil {
		b.timer.Stop()
	}
	b.timer = time.AfterFunc(d, func() { b.trip(stDeadline, "deadline") })
	return b
}

// WithLogger attaches a structured logger that records the budget's
// trip (see Budget.log). Call at construction, before the budget is
// shared across goroutines. Returns b.
func (b *Budget) WithLogger(l *telemetry.Logger) *Budget {
	if b == nil {
		return nil
	}
	b.log = l
	return b
}

// WithParent chains this budget under p: Check and Err consult p first,
// so cancelling the parent ends every child. Call at construction,
// before the budget is shared across goroutines. Returns b.
func (b *Budget) WithParent(p *Budget) *Budget {
	if b == nil {
		return nil
	}
	b.parent = p
	return b
}

// Cancel trips the budget with ErrCancelled and the given reason.
// Idempotent; the first trip wins.
func (b *Budget) Cancel(reason string) {
	if b == nil {
		return
	}
	b.trip(stCancelled, reason)
}

// CancelOn cancels the budget when sig delivers, first calling notify
// (nil skips it). A signal already queued when CancelOn is called
// cancels the budget before it returns, so a run that starts
// interrupted stops at its first check instead of racing the signal;
// later signals are received by a goroutine that ends when the budget
// trips. A nil sig does nothing.
func (b *Budget) CancelOn(sig <-chan os.Signal, notify func()) {
	if b == nil || sig == nil {
		return
	}
	cancel := func() {
		if notify != nil {
			notify()
		}
		b.Cancel("interrupt signal")
	}
	select {
	case <-sig:
		cancel()
		return
	default:
	}
	go func() {
		select {
		case <-sig:
			cancel()
		case <-b.done:
		}
	}()
}

// trip moves the budget to a terminal state exactly once.
func (b *Budget) trip(st int32, reason string) {
	b.mu.Lock()
	if b.state.Load() != stActive {
		b.mu.Unlock()
		return
	}
	b.reason = reason
	b.state.Store(st)
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	close(b.done)
	b.mu.Unlock()
	if st == stCancelled {
		b.log.Info("cancel", "budget cancelled", "reason", reason)
	} else {
		b.log.Error("deadline", "budget deadline exceeded")
	}
}

// Check reports whether the budget (or a chained parent) has been
// exhausted: nil while active, a sticky error wrapping ErrExhausted
// afterwards. On the active path it is one atomic add and one atomic
// load per budget in the chain, with no lock — cheap enough for
// per-step solver loops.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	b.checks.Add(1)
	if err := b.parent.Check(); err != nil {
		return err
	}
	if b.state.Load() == stActive {
		return nil
	}
	return b.Err()
}

// Err returns the trip error (nil while active). The parent's error
// wins when both tripped — the run-level cause is the diagnostic one.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if err := b.parent.Err(); err != nil {
		return err
	}
	switch b.state.Load() {
	case stActive:
		return nil
	case stDeadline:
		return ErrDeadline
	}
	if b.reason != "" {
		return fmt.Errorf("%w (%s)", ErrCancelled, b.reason)
	}
	return ErrCancelled
}

// Checks returns how many Check calls the budget has served — the
// denominator of the "budget checks add <1% overhead" accounting. A
// Check on a child counts on the child and on every ancestor.
func (b *Budget) Checks() int64 {
	if b == nil {
		return 0
	}
	return b.checks.Load()
}

// Done returns a channel closed when the budget trips. A nil budget
// returns a nil channel, which blocks forever in a select — the idiom
// `case <-b.Done():` is safe without a nil check. A child's channel
// closes on its own trip only, not on its parent's.
func (b *Budget) Done() <-chan struct{} {
	if b == nil {
		return nil
	}
	return b.done
}

// Exhausted reports whether err was caused by a budget trip (of any
// budget, any cause). The recovery ladders use it to tell "the budget
// ended this work — stop" from "this work failed — retry or degrade".
func Exhausted(err error) bool {
	return errors.Is(err, ErrExhausted)
}
