package budget

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

func TestNilBudgetIsFree(t *testing.T) {
	var b *Budget
	if err := b.Check(); err != nil {
		t.Fatalf("nil Check: %v", err)
	}
	b.Cancel("x")
	if b.Checks() != 0 || b.Err() != nil {
		t.Fatal("nil budget accumulated state")
	}
	select {
	case <-b.Done():
		t.Fatal("nil Done channel fired")
	default:
	}
	if b.WithDeadline(time.Second) != nil || b.WithParent(New()) != nil {
		t.Fatal("nil builders returned non-nil")
	}
}

func TestCancelIsStickyAndCarriesReason(t *testing.T) {
	b := New()
	if err := b.Check(); err != nil {
		t.Fatalf("fresh budget tripped: %v", err)
	}
	b.Cancel("SIGINT")
	b.Cancel("second call ignored")
	err := b.Check()
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrCancelled wrapping ErrExhausted, got %v", err)
	}
	if got := err.Error(); got != "budget: exhausted: cancelled (SIGINT)" {
		t.Fatalf("reason lost: %q", got)
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("Done not closed after Cancel")
	}
}

func TestDeadlineTrips(t *testing.T) {
	b := New().WithDeadline(5 * time.Millisecond)
	select {
	case <-b.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("deadline never fired")
	}
	if err := b.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestParentChaining(t *testing.T) {
	run := New()
	attempt := New().WithParent(run)
	// A tripped child does not end the run.
	attempt.Cancel("attempt watchdog")
	if err := run.Check(); err != nil {
		t.Fatalf("child trip leaked to parent: %v", err)
	}
	if err := attempt.Check(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("child not tripped: %v", err)
	}
	// A tripped run ends every child, and the run's cause wins.
	att2 := New().WithParent(run)
	run.Cancel("run over")
	if err := att2.Check(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("parent trip not seen by child: %v", err)
	}
	if got := att2.Err().Error(); got != "budget: exhausted: cancelled (run over)" {
		t.Fatalf("parent cause did not win: %q", got)
	}
}

// TestParentedBudgetRace cancels a parent while goroutines Check its
// children (run it under -race): each goroutine must stop on the
// parent's cause, cancelling a child alone must leave the parent
// active, and Checks must count every call on both budgets.
func TestParentedBudgetRace(t *testing.T) {
	const workers = 8
	parent := New()
	child := New().WithParent(parent)
	lone := New().WithParent(parent)

	// A child cancelled on its own leaves the parent active.
	lone.Cancel("child only")
	if err := parent.Check(); err != nil {
		t.Fatalf("cancelling a child tripped the parent: %v", err)
	}
	if err := lone.Check(); err == nil || err.Error() != "budget: exhausted: cancelled (child only)" {
		t.Fatalf("lone child error = %v, want its own cause", err)
	}

	var wg sync.WaitGroup
	calls := make([]int64, workers)
	errs := make([]error, workers)
	started := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				calls[w]++
				if err := child.Check(); err != nil {
					errs[w] = err
					return
				}
				if calls[w] == 100 {
					started <- struct{}{}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-started
	}
	parent.Cancel("server shutting down")
	wg.Wait()

	var total int64
	for w := 0; w < workers; w++ {
		if errs[w] == nil || errs[w].Error() != "budget: exhausted: cancelled (server shutting down)" {
			t.Errorf("worker %d stopped with %v, want the parent's cause", w, errs[w])
		}
		total += calls[w]
	}
	if got := child.Checks(); got != total {
		t.Errorf("child.Checks() = %d, want %d", got, total)
	}
	// The parent served its own check above, the lone child's two and
	// every child check.
	if got, want := parent.Checks(), total+2; got != want {
		t.Errorf("parent.Checks() = %d, want %d", got, want)
	}
}

func TestCancelOnQueuedSignal(t *testing.T) {
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	b := New()
	notified := false
	b.CancelOn(sig, func() { notified = true })
	// The queued signal is taken before CancelOn returns.
	if err := b.Check(); !errors.Is(err, ErrCancelled) || !notified {
		t.Fatalf("queued signal: err %v, notified %v; want a cancelled budget", err, notified)
	}

	late := make(chan os.Signal, 1)
	b2 := New()
	b2.CancelOn(late, nil)
	if err := b2.Check(); err != nil {
		t.Fatalf("budget tripped before any signal: %v", err)
	}
	late <- os.Interrupt
	select {
	case <-b2.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("a later signal never cancelled the budget")
	}
	if got := b2.Err().Error(); got != "budget: exhausted: cancelled (interrupt signal)" {
		t.Fatalf("late signal cause = %q", got)
	}
}

func TestExhaustedClassifier(t *testing.T) {
	if Exhausted(errors.New("other")) {
		t.Fatal("unrelated error classified as budget trip")
	}
	b := New()
	b.Cancel("")
	if !Exhausted(b.Err()) {
		t.Fatal("budget trip not classified")
	}
}
