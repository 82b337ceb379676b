package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// JobState is the lifecycle position of an async job.
type JobState int

const (
	// JobPending is queued, not yet picked up by a worker.
	JobPending JobState = iota
	// JobRunning is executing on a worker.
	JobRunning
	// JobSucceeded finished and holds a result.
	JobSucceeded
	// JobFailed finished with an error.
	JobFailed
	// JobCancelled was cancelled before or during execution.
	JobCancelled
)

// String returns the wire name of the state.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCancelled
}

// JobFunc is the unit of queued work. It must honour ctx: when the job is
// cancelled or exceeds its deadline, ctx is cancelled and the func should
// return promptly (a ctx-derived error marks the job cancelled rather
// than failed).
type JobFunc func(ctx context.Context) (any, error)

// Job tracks one submitted unit of work. It is the server's only
// in-memory record of a job: its stream hub lives and leaves with it.
type Job struct {
	ID string
	// hub fans the job's progress out to stream readers. It is set before
	// any worker can take the job and finished by the terminal hook; nil
	// for a job submitted without one.
	hub *streamHub

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	result   any
	cancel   context.CancelFunc
	fn       JobFunc
}

// JobStatus is the wire representation of a job. Timestamps are RFC 3339
// strings, empty until the corresponding transition happens.
type JobStatus struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	CreatedAt  string  `json:"created_at"`
	StartedAt  string  `json:"started_at,omitempty"`
	FinishedAt string  `json:"finished_at,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	Error      string  `json:"error,omitempty"`
	Result     any     `json:"result,omitempty"`
}

// terminal reports whether the status is final.
func (st JobStatus) terminal() bool {
	switch st.State {
	case JobSucceeded.String(), JobFailed.String(), JobCancelled.String():
		return true
	}
	return false
}

func rfc3339OrEmpty(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

// Status snapshots the job for serialisation.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is Status with j.mu already held — Cancel snapshots the
// job inside the same critical section as the state change.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:         j.ID,
		State:      j.state.String(),
		CreatedAt:  rfc3339OrEmpty(j.created),
		StartedAt:  rfc3339OrEmpty(j.started),
		FinishedAt: rfc3339OrEmpty(j.finished),
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		st.DurationMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == JobSucceeded {
		st.Result = j.result
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ErrQueueFull is returned by Submit when the backlog is at capacity;
// callers should translate it to 503/429 back-pressure.
var ErrQueueFull = errors.New("server: job queue backlog full")

// Queue is a bounded worker-pool job queue. Jobs carry a per-job
// context.Context derived from the queue's base context plus the
// configured deadline, so cancelling a job (or shutting the queue down)
// aborts its work promptly.
//
// The backlog is a mutex-guarded FIFO rather than a channel so that
// cancelling a pending job frees its slot immediately: Depth reports
// only jobs that will actually run, and Submit never rejects on slots
// held by corpses (the backlog-slot-leak bug the channel design had).
// Workers park on the wake channel when the backlog is empty.
type Queue struct {
	base     context.Context
	stop     context.CancelFunc
	workers  int
	capacity int
	timeout  time.Duration
	// wake carries at most one token per backlog slot; Submit's
	// non-blocking send can only fail when enough stale tokens are
	// already buffered to rouse a worker anyway.
	wake chan struct{}

	mu      sync.Mutex
	backlog []*Job
	jobs    map[string]*Job
	// retained holds the jobs of the map in submission order, which is
	// creation order, so pruning walks from the oldest job.
	retained []*Job
	seq      uint64
	// onTerminal, when set (SetTerminalHook), receives every job with its
	// terminal status snapshot; the server finishes the job's stream hub
	// and journals the result through it.
	onTerminal func(*Job, JobStatus)

	wg        sync.WaitGroup
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64
}

// maxRetainedJobs bounds the finished-job history kept for polling; the
// oldest terminal jobs are pruned past this point so a long-lived server
// does not grow without bound.
const maxRetainedJobs = 1024

// NewQueue starts a queue of the given worker count and backlog.
// Non-positive arguments fall back to 1 worker and a backlog of 64;
// jobTimeout <= 0 means no per-job deadline.
func NewQueue(workers, backlog int, jobTimeout time.Duration) *Queue {
	if workers <= 0 {
		workers = 1
	}
	if backlog <= 0 {
		backlog = 64
	}
	base, stop := context.WithCancel(context.Background())
	q := &Queue{
		base:     base,
		stop:     stop,
		workers:  workers,
		capacity: backlog,
		timeout:  jobTimeout,
		wake:     make(chan struct{}, backlog),
		jobs:     make(map[string]*Job),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// SetTerminalHook registers fn to receive every job with its terminal
// status snapshot the moment it finishes (success, failure, cancellation
// — including a pending job cancelled before it ran). Register before
// the first Submit; fn runs outside the queue's locks.
func (q *Queue) SetTerminalHook(fn func(*Job, JobStatus)) {
	q.mu.Lock()
	q.onTerminal = fn
	q.mu.Unlock()
}

// terminalHook snapshots the registered hook under q.mu.
func (q *Queue) terminalHook() func(*Job, JobStatus) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.onTerminal
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.base.Done():
			return
		default:
		}
		if j := q.take(); j != nil {
			q.run(j)
			continue
		}
		select {
		case <-q.base.Done():
			return
		case <-q.wake:
		}
	}
}

// take pops the backlog's head, or nil when it is empty.
func (q *Queue) take() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.backlog) == 0 {
		return nil
	}
	j := q.backlog[0]
	q.backlog[0] = nil // release the reference for GC
	q.backlog = q.backlog[1:]
	return j
}

func (q *Queue) run(j *Job) {
	j.mu.Lock()
	if j.state != JobPending { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx := q.base
	var cancel context.CancelFunc
	if q.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, q.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	fn := j.fn
	j.mu.Unlock()
	defer cancel()

	result, err := fn(ctx)

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		j.state = JobCancelled
		j.err = err
		q.cancelled.Add(1)
	case err != nil:
		j.state = JobFailed
		j.err = err
		q.failed.Add(1)
	default:
		j.state = JobSucceeded
		j.result = result
		q.completed.Add(1)
	}
	st := j.statusLocked()
	j.mu.Unlock()
	if hook := q.terminalHook(); hook != nil {
		hook(j, st)
	}
}

// Submit enqueues fn under a fresh sequential ID and returns its job
// handle, or ErrQueueFull when the backlog is at capacity.
func (q *Queue) Submit(fn JobFunc) (*Job, error) {
	return q.submit("", nil, fn)
}

// submit enqueues fn with its stream hub (nil for none) under a fresh ID
// when id is empty, or under id: the journal's restart path resubmits
// unfinished jobs under their original IDs so poll URLs handed out
// before the restart stay valid. A given ID's numeric suffix (if any)
// advances the queue's sequence, so fresh submissions never collide
// with a replayed ID.
func (q *Queue) submit(id string, hub *streamHub, fn JobFunc) (*Job, error) {
	q.mu.Lock()
	if len(q.backlog) >= q.capacity {
		q.mu.Unlock()
		q.rejected.Add(1)
		return nil, ErrQueueFull
	}
	if id == "" {
		q.seq++
		id = fmt.Sprintf("job-%06d", q.seq)
	} else {
		if _, exists := q.jobs[id]; exists {
			q.mu.Unlock()
			return nil, fmt.Errorf("server: job %q already exists", id)
		}
		q.reserveSeqLocked(id)
	}
	j := &Job{
		ID:      id,
		hub:     hub,
		state:   JobPending,
		created: time.Now(),
		fn:      fn,
	}
	q.jobs[j.ID] = j
	q.retained = append(q.retained, j)
	q.backlog = append(q.backlog, j)
	q.pruneLocked()
	q.mu.Unlock()
	q.submitted.Add(1)
	select {
	case q.wake <- struct{}{}:
	default: // enough tokens buffered to rouse a worker already
	}
	return j, nil
}

// ReserveID advances the queue's ID sequence past id's numeric suffix,
// so a journaled-but-finished job's ID is never reissued to new work.
func (q *Queue) ReserveID(id string) {
	q.mu.Lock()
	q.reserveSeqLocked(id)
	q.mu.Unlock()
}

// reserveSeqLocked bumps q.seq past the numeric suffix of a "job-NNNNNN"
// ID; other ID shapes reserve nothing. Callers hold q.mu.
func (q *Queue) reserveSeqLocked(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > q.seq {
		q.seq = n
	}
}

// pruneLocked evicts the oldest terminal job once more than
// maxRetainedJobs are retained. The walk from the oldest job skips only
// pending and running ones. Callers hold q.mu.
func (q *Queue) pruneLocked() {
	if len(q.retained) <= maxRetainedJobs {
		return
	}
	for i, j := range q.retained {
		if j.State().Terminal() {
			delete(q.jobs, j.ID)
			q.retained = slices.Delete(q.retained, i, i+1)
			return
		}
	}
}

// ShuttingDown reports whether Shutdown has begun. Jobs cancelled by
// shutdown are process-death casualties, not user cancellations — the
// journal leaves them unfinished so the next start resumes them.
func (q *Queue) ShuttingDown() bool { return q.base.Err() != nil }

// Get returns the job with the given ID.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Cancel aborts the identified job: a pending job is marked cancelled
// without running (and its backlog slot is freed immediately), a running
// job has its context cancelled (the state turns cancelled when the
// JobFunc returns). It reports whether the job exists and whether the
// cancellation took effect (false when the job had already finished),
// plus the job's status snapshot taken in the same critical section as
// the state change — callers must use the snapshot rather than re-fetch
// the job, which a concurrent Submit's prune may already have evicted.
func (q *Queue) Cancel(id string) (st JobStatus, found, cancelled bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return JobStatus{}, false, false
	}
	j.mu.Lock()
	switch j.state {
	case JobPending:
		j.state = JobCancelled
		j.finished = time.Now()
		j.err = context.Canceled
		q.cancelled.Add(1)
		q.removeBacklogLocked(j)
		st = j.statusLocked()
		j.mu.Unlock()
		hook := q.onTerminal
		q.mu.Unlock()
		if hook != nil {
			hook(j, st)
		}
		return st, true, true
	case JobRunning:
		j.cancel() // run() records the terminal state when fn returns
		st = j.statusLocked()
		j.mu.Unlock()
		q.mu.Unlock()
		return st, true, true
	default:
		st = j.statusLocked()
		j.mu.Unlock()
		q.mu.Unlock()
		return st, true, false
	}
}

// removeBacklogLocked drops j from the backlog FIFO, freeing its slot
// the moment a pending job is cancelled. Callers hold q.mu.
func (q *Queue) removeBacklogLocked(j *Job) {
	for i, b := range q.backlog {
		if b == j {
			copy(q.backlog[i:], q.backlog[i+1:])
			q.backlog[len(q.backlog)-1] = nil
			q.backlog = q.backlog[:len(q.backlog)-1]
			return
		}
	}
}

// Depth returns the number of jobs queued but not yet started; cancelled
// pending jobs leave the backlog immediately and are never counted.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.backlog)
}

// Snapshot exports the queue counters for /metrics.
func (q *Queue) Snapshot() QueueSnapshot {
	return QueueSnapshot{
		Depth:     q.Depth(),
		Workers:   q.workers,
		Submitted: q.submitted.Load(),
		Completed: q.completed.Load(),
		Failed:    q.failed.Load(),
		Cancelled: q.cancelled.Load(),
		Rejected:  q.rejected.Load(),
	}
}

// Shutdown cancels the base context — aborting running jobs — and waits
// for the workers to exit or ctx to expire. An already-expired ctx
// still triggers the stop but skips the drain wait deterministically,
// returning an error wrapping ctx.Err() (a two-way select would pick
// between the expired ctx and an instant drain at random).
func (q *Queue) Shutdown(ctx context.Context) error {
	q.stop()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("server: queue shutdown: %w", err)
	}
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: queue shutdown: %w", ctx.Err())
	}
}
