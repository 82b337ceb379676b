package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitState polls until the job reaches a terminal state or the deadline
// expires.
func waitTerminal(t *testing.T, j *Job) JobState {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.State(); s.Terminal() {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state (stuck at %v)", j.ID, j.State())
	return 0
}

func TestQueueRunsJobToSuccess(t *testing.T) {
	q := NewQueue(2, 8, 0)
	defer q.Shutdown(context.Background())
	j, err := q.Submit(func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != JobSucceeded {
		t.Fatalf("state = %v, want succeeded", s)
	}
	st := j.Status()
	if st.Result != 42 || st.Error != "" || st.State != "succeeded" {
		t.Errorf("status = %+v", st)
	}
	if st.CreatedAt == "" || st.StartedAt == "" || st.FinishedAt == "" {
		t.Errorf("missing timestamps: %+v", st)
	}
	if q.Snapshot().Completed != 1 {
		t.Errorf("snapshot = %+v, want 1 completed", q.Snapshot())
	}
}

func TestQueueRecordsFailure(t *testing.T) {
	q := NewQueue(1, 8, 0)
	defer q.Shutdown(context.Background())
	j, _ := q.Submit(func(ctx context.Context) (any, error) {
		return nil, errors.New("boom")
	})
	if s := waitTerminal(t, j); s != JobFailed {
		t.Fatalf("state = %v, want failed", s)
	}
	if st := j.Status(); st.Error != "boom" || st.Result != nil {
		t.Errorf("status = %+v", st)
	}
}

func TestQueueCancelRunningJob(t *testing.T) {
	q := NewQueue(1, 8, 0)
	defer q.Shutdown(context.Background())
	started := make(chan struct{})
	j, _ := q.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // block until cancelled
		return nil, ctx.Err()
	})
	<-started
	_, found, cancelled := q.Cancel(j.ID)
	if !found || !cancelled {
		t.Fatalf("Cancel = %v, %v", found, cancelled)
	}
	if s := waitTerminal(t, j); s != JobCancelled {
		t.Fatalf("state = %v, want cancelled", s)
	}
}

func TestQueueCancelPendingJob(t *testing.T) {
	q := NewQueue(1, 8, 0)
	defer q.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	q.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started // the single worker is now occupied
	ran := false
	j2, _ := q.Submit(func(ctx context.Context) (any, error) {
		ran = true
		return nil, nil
	})
	if _, found, cancelled := q.Cancel(j2.ID); !found || !cancelled {
		t.Fatalf("cancel pending failed")
	}
	close(block)
	if s := waitTerminal(t, j2); s != JobCancelled {
		t.Fatalf("state = %v, want cancelled", s)
	}
	// Give the worker a chance to (wrongly) pick the cancelled job up.
	time.Sleep(10 * time.Millisecond)
	if ran {
		t.Error("cancelled pending job still executed")
	}
	if _, _, cancelled := q.Cancel(j2.ID); cancelled {
		t.Error("re-cancelling a finished job should report no effect")
	}
}

// TestCancelledPendingJobsFreeBacklogSlots is the backlog-slot-leak
// regression: cancelling every queued job must free its slot at once —
// Depth drops to zero and the next Submit succeeds. Under the old
// channel-backed backlog the corpses sat in the channel until a worker
// drained them, so Depth over-reported and Submit returned spurious
// ErrQueueFull.
func TestCancelledPendingJobsFreeBacklogSlots(t *testing.T) {
	q := NewQueue(1, 2, 0)
	defer q.Shutdown(context.Background())
	block := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(block) }) }
	defer release()
	started := make(chan struct{})
	q.Submit(func(ctx context.Context) (any, error) { close(started); <-block; return nil, nil })
	<-started // the single worker is now occupied

	// Fill the backlog completely, then prove it is full.
	var pending []*Job
	for i := 0; i < 2; i++ {
		j, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, j)
	}
	if _, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull Submit err = %v, want ErrQueueFull", err)
	}

	// Cancel the whole backlog: every slot must free immediately.
	for _, j := range pending {
		if _, found, cancelled := q.Cancel(j.ID); !found || !cancelled {
			t.Fatalf("cancel pending %s failed", j.ID)
		}
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("Depth after cancelling the backlog = %d, want 0", d)
	}
	j, err := q.Submit(func(ctx context.Context) (any, error) { return "freed", nil })
	if err != nil {
		t.Fatalf("Submit after cancelling a full backlog = %v, want success", err)
	}
	release() // let the worker drain to the freed job
	for _, p := range pending {
		if s := waitTerminal(t, p); s != JobCancelled {
			t.Fatalf("pending job %s state = %v, want cancelled", p.ID, s)
		}
	}
	if s := waitTerminal(t, j); s != JobSucceeded {
		t.Fatalf("post-cancel job state = %v, want succeeded", s)
	}
}

// TestCancelSnapshotSurvivesPrune pins the cancel-status contract behind
// the handleJobCancel nil-deref fix: Cancel returns the job's status
// snapshot from inside its own critical section, so the caller has a
// complete status even when the job is evicted from the retention map
// immediately afterwards (a concurrent Submit's pruneLocked does exactly
// that to a freshly-terminal job under a full map). The old two-step
// Cancel-then-Get pattern panicked here.
func TestCancelSnapshotSurvivesPrune(t *testing.T) {
	q := NewQueue(1, 8, 0)
	defer q.Shutdown(context.Background())
	j, err := q.Submit(func(ctx context.Context) (any, error) { return "done", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)

	// Fill the retained jobs so the terminal job is the prune victim.
	q.mu.Lock()
	for i := 0; i < maxRetainedJobs; i++ {
		id := fmt.Sprintf("filler-%06d", i)
		filler := &Job{ID: id, state: JobSucceeded, created: time.Now()}
		q.jobs[id] = filler
		q.retained = append(q.retained, filler)
	}
	q.mu.Unlock()

	st, found, cancelled := q.Cancel(j.ID)
	if !found || cancelled {
		t.Fatalf("Cancel(terminal) = found %v cancelled %v, want true false", found, cancelled)
	}
	// Evict the job exactly as a racing Submit's prune would, then verify
	// the snapshot is self-contained.
	q.mu.Lock()
	q.pruneLocked()
	q.mu.Unlock()
	if _, ok := q.Get(j.ID); ok {
		t.Fatal("prune did not evict the terminal job; test premise broken")
	}
	if st.ID != j.ID || st.State != "succeeded" || st.Result != "done" {
		t.Fatalf("snapshot after eviction = %+v, want the terminal status", st)
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(1, 1, 0)
	defer q.Shutdown(context.Background())
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	q.Submit(func(ctx context.Context) (any, error) { close(started); <-block; return nil, nil })
	<-started
	q.Submit(func(ctx context.Context) (any, error) { return nil, nil }) // fills the backlog
	_, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if q.Snapshot().Rejected != 1 {
		t.Errorf("snapshot = %+v, want 1 rejected", q.Snapshot())
	}
}

func TestQueueDeadlineCancelsJob(t *testing.T) {
	q := NewQueue(1, 8, 10*time.Millisecond)
	defer q.Shutdown(context.Background())
	j, _ := q.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if s := waitTerminal(t, j); s != JobCancelled {
		t.Fatalf("state = %v, want cancelled after deadline", s)
	}
	if st := j.Status(); st.Error == "" {
		t.Error("deadline cancellation should record an error")
	}
}

func TestQueueShutdownAbortsRunningJobs(t *testing.T) {
	q := NewQueue(1, 8, 0)
	started := make(chan struct{})
	j, _ := q.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := j.State(); s != JobCancelled {
		t.Errorf("state after shutdown = %v, want cancelled", s)
	}
}

// TestQueueShutdownExpiredContext is the unbounded-drain regression:
// Shutdown with an already-cancelled context must not wait for worker
// drain — it must still stop the queue, then return ctx.Err() at once,
// even while a misbehaving job ignores its cancellation.
func TestQueueShutdownExpiredContext(t *testing.T) {
	q := NewQueue(1, 8, 0)
	block := make(chan struct{})
	started := make(chan struct{})
	q.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-block // ignores ctx: the worker cannot drain until we let it
		return nil, ctx.Err()
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before Shutdown is even called
	errc := make(chan error, 1)
	go func() { errc <- q.Shutdown(ctx) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown blocked on worker drain despite an expired context")
	}

	// The expired-context Shutdown still stopped the queue: release the
	// stuck job and confirm a clean drain afterwards.
	close(block)
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatalf("follow-up drain failed: %v", err)
	}
}

func TestQueueConcurrentSubmitters(t *testing.T) {
	q := NewQueue(4, 256, 0)
	defer q.Shutdown(context.Background())
	const n = 64
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		j, err := q.Submit(func(ctx context.Context) (any, error) { return "ok", nil })
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
		if s := waitTerminal(t, j); s != JobSucceeded {
			t.Fatalf("%s: state %v", j.ID, s)
		}
	}
	if got := q.Snapshot().Completed; got != n {
		t.Errorf("completed = %d, want %d", got, n)
	}
}

func TestJobStateStrings(t *testing.T) {
	for s, want := range map[JobState]string{
		JobPending: "pending", JobRunning: "running", JobSucceeded: "succeeded",
		JobFailed: "failed", JobCancelled: "cancelled",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s, want)
		}
	}
	if fmt.Sprint(JobState(99)) != "JobState(99)" {
		t.Error("unknown state formatting")
	}
}

// TestPruneDeterministicTieBreak is the regression test for the prune
// order: when several terminal jobs share the oldest creation time
// (coarse clocks make that routine), the evicted job must not depend on
// map iteration order. Pruning walks the jobs in submission order, so
// across repeated runs the first submitted tied job is always the one
// pruned.
func TestPruneDeterministicTieBreak(t *testing.T) {
	created := time.Now()
	for round := 0; round < 20; round++ {
		q := &Queue{jobs: make(map[string]*Job)}
		for i := 0; i <= maxRetainedJobs; i++ {
			j := &Job{
				ID:      fmt.Sprintf("job-%06d", i),
				state:   JobSucceeded,
				created: created, // every job ties on creation time
			}
			q.jobs[j.ID] = j
			q.retained = append(q.retained, j)
		}
		q.mu.Lock()
		q.pruneLocked()
		q.mu.Unlock()
		if len(q.jobs) != maxRetainedJobs {
			t.Fatalf("round %d: %d jobs retained, want %d", round, len(q.jobs), maxRetainedJobs)
		}
		if _, ok := q.jobs["job-000000"]; ok {
			t.Fatalf("round %d: prune kept job-000000; a different tied job was evicted (map-order dependent)", round)
		}
	}
}

// TestPruneEvictsOldestTerminal pins the primary ordering: with distinct
// creation times the oldest terminal job goes first, and non-terminal
// jobs are never pruned regardless of age.
func TestPruneEvictsOldestTerminal(t *testing.T) {
	base := time.Now()
	q := &Queue{jobs: make(map[string]*Job)}
	for i := 0; i <= maxRetainedJobs; i++ {
		st := JobSucceeded
		if i == 0 {
			st = JobRunning // oldest of all, but not terminal
		}
		j := &Job{
			ID:      fmt.Sprintf("job-%06d", i),
			state:   st,
			created: base.Add(time.Duration(i) * time.Second),
		}
		q.jobs[j.ID] = j
		q.retained = append(q.retained, j)
	}
	q.mu.Lock()
	q.pruneLocked()
	q.mu.Unlock()
	if _, ok := q.jobs["job-000000"]; !ok {
		t.Fatal("prune evicted the running job")
	}
	if _, ok := q.jobs["job-000001"]; ok {
		t.Fatal("prune kept the oldest terminal job")
	}
}

// TestPruneKeepsRetainedAndMapInStep submits 3×maxRetainedJobs jobs in
// batches behind a gate, cancelling some while pending, and lets every
// job finish: afterwards the retained slice and the ID map must hold the
// same maxRetainedJobs jobs, the newest ones, in submission order.
func TestPruneKeepsRetainedAndMapInStep(t *testing.T) {
	const batch = 16
	q := NewQueue(1, batch+1, 0)
	defer q.Shutdown(context.Background())
	var all []*Job
	for len(all) < 3*maxRetainedJobs {
		gate := make(chan struct{})
		j, err := q.Submit(func(ctx context.Context) (any, error) { <-gate; return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
		for i := 1; i < batch; i++ {
			j, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil })
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, j)
			if i%3 == 0 {
				if _, found, cancelled := q.Cancel(j.ID); !found || !cancelled {
					t.Fatalf("cancel pending %s: found %v cancelled %v", j.ID, found, cancelled)
				}
			}
		}
		close(gate)
		for _, j := range all[len(all)-batch:] {
			waitTerminal(t, j)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) != maxRetainedJobs || len(q.retained) != maxRetainedJobs {
		t.Fatalf("retained %d jobs in the map and %d in the slice, want %d",
			len(q.jobs), len(q.retained), maxRetainedJobs)
	}
	newest := all[len(all)-maxRetainedJobs:]
	for i, j := range q.retained {
		if j != newest[i] {
			t.Fatalf("retained[%d] = %s, want %s", i, j.ID, newest[i].ID)
		}
		if q.jobs[j.ID] != j {
			t.Fatalf("map entry for %s is not the retained job", j.ID)
		}
	}
}
