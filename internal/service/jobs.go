package service

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rms/internal/budget"
	"rms/internal/telemetry"
)

// Job lifecycle states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled" // budget trip or shutdown; resumable when a checkpoint exists
)

// ErrBusy reports a full admission queue — HTTP 429 with Retry-After.
var ErrBusy = errors.New("service: job queue full")

// ErrShuttingDown reports a draining server — HTTP 503.
var ErrShuttingDown = errors.New("service: shutting down")

// Job is one queued unit of work. Each job gets its own budget
// (cancelled on shutdown) and its own flight recorder, which the
// /v1/jobs/{id}/events endpoint streams as ndjson.
type Job struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// seq is the submission number N of ID "job-N".
	seq int

	mu     sync.Mutex
	status string
	errMsg string
	result any

	run  func(j *Job) (any, error)
	bud  *budget.Budget
	rec  *telemetry.Recorder
	log  *telemetry.Logger
	done chan struct{}
}

// JobView is the JSON snapshot of a job.
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Result any    `json:"result,omitempty"`
	// Events is the total event count in the job's flight recorder —
	// the cursor bound for /v1/jobs/{id}/events?after=N.
	Events uint64 `json:"events"`
}

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID: j.ID, Kind: j.Kind, Status: j.status,
		Error: j.errMsg, Result: j.result,
		Events: j.rec.Total(),
	}
}

// Done returns the completion channel (closed when the job reaches a
// terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

// Budget returns the job's budget (for cancellation).
func (j *Job) Budget() *budget.Budget { return j.bud }

// Recorder returns the job's flight recorder (for event streaming).
func (j *Job) Recorder() *telemetry.Recorder { return j.rec }

// Log returns the job's logger, feeding its recorder.
func (j *Job) Log() *telemetry.Logger { return j.log }

func (j *Job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// terminal reports whether the job has finished.
func (j *Job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Queue is the bounded admission queue: Submit either enqueues (jobs
// wait for one of the worker goroutines) or refuses immediately with
// ErrBusy / ErrShuttingDown. Completed jobs stay addressable for
// result polling.
type Queue struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	seq     int
	closing bool

	// parent, when non-nil, is the server-wide budget every job budget
	// hangs under: cancelling it trips all jobs at once.
	parent *budget.Budget

	ch chan *Job
	wg sync.WaitGroup
}

// NewQueue starts workers goroutines draining a capacity-bounded
// admission queue.
func NewQueue(capacity, workers int) *Queue {
	if capacity <= 0 {
		capacity = 16
	}
	if workers <= 0 {
		workers = 2
	}
	q := &Queue{
		jobs: make(map[string]*Job),
		ch:   make(chan *Job, capacity),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit admits one job. kind tags the job; deadline (0 = none) bounds
// its budget; run does the work on a worker goroutine, logging into
// the job's recorder. Returns ErrBusy when the queue is full and
// ErrShuttingDown once Shutdown has begun.
func (q *Queue) Submit(kind string, deadline time.Duration, run func(j *Job) (any, error)) (*Job, error) {
	rec := telemetry.NewRecorder(0)
	log := telemetry.NewLogger(rec)
	j := &Job{
		Kind: kind, status: JobQueued, run: run,
		bud: budget.New().WithLogger(log.Scope("budget")).WithParent(q.parent),
		rec: rec, log: log,
		done: make(chan struct{}),
	}
	if deadline > 0 {
		j.bud = j.bud.WithDeadline(deadline)
	}

	q.mu.Lock()
	if q.closing {
		q.mu.Unlock()
		j.bud.Cancel("job not admitted") // leave the parent's children
		return nil, ErrShuttingDown
	}
	q.seq++
	j.seq = q.seq
	j.ID = fmt.Sprintf("job-%d", j.seq)
	select {
	case q.ch <- j:
		q.jobs[j.ID] = j
		q.mu.Unlock()
		return j, nil
	default:
		q.seq-- // the job never existed
		q.mu.Unlock()
		j.bud.Cancel("job not admitted")
		return nil, ErrBusy
	}
}

// Job returns a job by ID.
func (q *Queue) Job(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Jobs lists the current job views, newest first.
func (q *Queue) Jobs() []JobView {
	q.mu.Lock()
	all := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		all = append(all, j)
	}
	q.mu.Unlock()
	slices.SortFunc(all, func(a, b *Job) int { return b.seq - a.seq })
	views := make([]JobView, len(all))
	for i, j := range all {
		views[i] = j.View()
	}
	return views
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		j.setStatus(JobRunning)
		j.log.Info("job", "job started", "id", j.ID, "kind", j.Kind)
		res, err := j.run(j)
		j.mu.Lock()
		j.result = res
		switch {
		case err == nil:
			j.status = JobDone
		case budget.Exhausted(err):
			j.status = JobCanceled
			j.errMsg = err.Error()
		default:
			j.status = JobFailed
			j.errMsg = err.Error()
		}
		st := j.status
		j.mu.Unlock()
		j.log.Info("job", "job finished", "id", j.ID, "status", st)
		j.bud.Cancel("job finished")
		close(j.done)
	}
}

// Shutdown stops admission immediately (Submit returns
// ErrShuttingDown), then drains: queued and running jobs get up to
// drain to finish on their own; past the deadline every unfinished
// job's budget is cancelled and the workers are awaited — solvers and
// optimizers stop at their next cooperative check, fit jobs leaving a
// resumable checkpoint. Returns true when everything drained inside
// the deadline.
func (q *Queue) Shutdown(drain time.Duration) bool {
	q.mu.Lock()
	if q.closing {
		q.mu.Unlock()
		return true
	}
	q.closing = true
	q.mu.Unlock()
	close(q.ch)

	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	if drain > 0 {
		t := time.NewTimer(drain)
		defer t.Stop()
		select {
		case <-drained:
			return true
		case <-t.C:
		}
	}
	q.mu.Lock()
	for _, j := range q.jobs {
		if !j.terminal() {
			j.bud.Cancel("server shutting down")
		}
	}
	q.mu.Unlock()
	<-drained
	return false
}
