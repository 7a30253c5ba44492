package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// acquireAsync runs Acquire on a goroutine and reports its result.
func acquireAsync(t *Ticket) chan error {
	ch := make(chan error, 1)
	go func() { ch <- t.Acquire(context.Background()) }()
	return ch
}

// TestSchedulerAdmitsUpToCapacity: admitted cost never exceeds capacity;
// releasing capacity admits the waiter.
func TestSchedulerAdmitsUpToCapacity(t *testing.T) {
	s := NewScheduler(2, 10)
	t1, err := s.Enqueue(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Enqueue(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := t2.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	t3, err := s.Enqueue(1)
	if err != nil {
		t.Fatal(err)
	}
	ch := acquireAsync(t3)
	select {
	case err := <-ch:
		t.Fatalf("third cost-1 job admitted over capacity 2 (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if st := s.Stats(); st.UsedCost != 2 || st.Running != 2 || st.Queued != 1 {
		t.Fatalf("stats = %+v", st)
	}
	t1.Done()
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UsedCost != 2 || st.Running != 2 || st.Queued != 0 {
		t.Fatalf("stats after release = %+v", st)
	}
	t2.Done()
	t3.Done()
	if st := s.Stats(); st.UsedCost != 0 || st.Running != 0 {
		t.Fatalf("stats after all done = %+v", st)
	}
}

// TestSchedulerQueueOverflow: with capacity saturated, at most maxQueue
// jobs are accepted for queueing; the next Enqueue fails with
// ErrQueueFull. Deterministic because Enqueue reserves synchronously.
func TestSchedulerQueueOverflow(t *testing.T) {
	s := NewScheduler(1, 1)
	running, err := s.Enqueue(1) // pre-admitted: capacity is free
	if err != nil {
		t.Fatal(err)
	}
	if err := running.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued, err := s.Enqueue(1) // takes the single queue slot
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Enqueue err = %v, want ErrQueueFull", err)
	}
	// Draining the queue reopens admission.
	queued.Done()
	t3, err := s.Enqueue(1)
	if err != nil {
		t.Fatalf("after drain: %v", err)
	}
	t3.Done()
	running.Done()
}

// TestSchedulerZeroQueue: maxQueue 0 means admit-or-reject.
func TestSchedulerZeroQueue(t *testing.T) {
	s := NewScheduler(1, 0)
	t1, err := s.Enqueue(1)
	if err != nil {
		t.Fatal(err) // capacity free: admitted, not queued
	}
	if _, err := s.Enqueue(1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	t1.Done()
	if _, err := s.Enqueue(1); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestSchedulerFIFO: waiters are admitted in Acquire order, and a large
// job at the head is not starved by a small job behind it.
func TestSchedulerFIFO(t *testing.T) {
	s := NewScheduler(2, 10)
	hog, _ := s.Enqueue(2)
	if err := hog.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	big, _ := s.Enqueue(2)   // head: needs everything
	small, _ := s.Enqueue(1) // behind: would fit sooner, must not jump
	bigCh := acquireAsync(big)
	waitFor(t, "big to join the queue", func() bool { return s.Stats().Waiting == 1 })
	smallCh := acquireAsync(small)
	waitFor(t, "small to join the queue", func() bool { return s.Stats().Waiting == 2 })

	hog.Done()
	if err := <-bigCh; err != nil {
		t.Fatal(err)
	}
	select {
	case <-smallCh:
		t.Fatal("small job jumped the FIFO past the big head")
	case <-time.After(50 * time.Millisecond):
	}
	big.Done()
	if err := <-smallCh; err != nil {
		t.Fatal(err)
	}
	small.Done()
}

// TestSchedulerCancelledWaiter: a waiter whose ctx dies leaves the FIFO
// (unblocking smaller jobs behind it) and keeps its queue slot until
// Done.
func TestSchedulerCancelledWaiter(t *testing.T) {
	s := NewScheduler(2, 10)
	hog, _ := s.Enqueue(2)
	if err := hog.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	big, _ := s.Enqueue(2)
	small, _ := s.Enqueue(1)
	ctx, cancel := context.WithCancel(context.Background())
	bigCh := make(chan error, 1)
	go func() { bigCh <- big.Acquire(ctx) }()
	waitFor(t, "big to join the queue", func() bool { return s.Stats().Waiting == 1 })
	smallCh := acquireAsync(small)
	waitFor(t, "small to join the queue", func() bool { return s.Stats().Waiting == 2 })

	cancel()
	if err := <-bigCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	// small is still blocked only by the hog, not by the dead head...
	if st := s.Stats(); st.Waiting != 1 || st.Queued != 2 {
		t.Fatalf("stats after cancel = %+v (big must keep its queue slot until Done)", st)
	}
	big.Done()
	if st := s.Stats(); st.Queued != 1 {
		t.Fatalf("stats after big Done = %+v", st)
	}
	hog.Done()
	if err := <-smallCh; err != nil {
		t.Fatal(err)
	}
	small.Done()
}

// TestSchedulerCostClamp: a job costing more than total capacity still
// runs (alone).
func TestSchedulerCostClamp(t *testing.T) {
	s := NewScheduler(10, 4)
	huge, err := s.Enqueue(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := huge.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UsedCost != 10 {
		t.Fatalf("clamped cost = %d, want capacity 10", st.UsedCost)
	}
	// And nothing else fits alongside it.
	other, err := s.Enqueue(1)
	if err != nil {
		t.Fatal(err)
	}
	ch := acquireAsync(other)
	select {
	case <-ch:
		t.Fatal("job admitted alongside a capacity-filling job")
	case <-time.After(50 * time.Millisecond):
	}
	huge.Done()
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	other.Done()
}

// TestDeleteDuringBackoffLeaksNoSlot: a retrying job holds neither run
// capacity nor a queue slot while backing off, a DELETE lands
// immediately (it does not wait out the backoff), and afterwards the
// scheduler is exactly as empty as before the job existed.
func TestDeleteDuringBackoffLeaksNoSlot(t *testing.T) {
	var runs atomic.Int32
	srv := withBackoff(New(Config{Registry: flakyRegistry(1<<30, &runs), Capacity: 1, MaxQueue: 1,
		MaxRetries: 10}), time.Minute, time.Minute)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}

	id := env.submit(t, `{"scenario":"flaky"}`)
	waitFor(t, "job to enter backoff", func() bool { return env.status(t, id).State == StateRetrying })
	if st := srv.Scheduler().Stats(); st.UsedCost != 0 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("scheduler holds resources during backoff: %+v", st)
	}
	start := time.Now()
	if code, _ := env.do(t, "DELETE", "/jobs/"+id, ""); code != http.StatusOK {
		t.Fatal("DELETE failed")
	}
	if j := env.await(t, id); j.State != StateCancelled {
		t.Fatalf("state after delete = %s", j.State)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancel took %v: the DELETE waited out the backoff", waited)
	}
	if st := srv.Scheduler().Stats(); st.UsedCost != 0 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("scheduler leaked a slot: %+v", st)
	}
	// The queue slot is genuinely free: capacity 1/queue 1 still admits
	// and runs a fresh job.
	next := env.submit(t, `{"scenario":"flaky","options":{"steps":2}}`)
	waitFor(t, "next job to run an attempt", func() bool {
		s := env.status(t, next).State
		return s == StateRetrying || s == StateRunning
	})
	env.do(t, "DELETE", "/jobs/"+next, "")
	env.await(t, next)
}

// TestTicketDoneIdempotent: double Done must not corrupt the accounting.
func TestTicketDoneIdempotent(t *testing.T) {
	s := NewScheduler(1, 1)
	t1, _ := s.Enqueue(1)
	t1.Acquire(context.Background())
	t1.Done()
	t1.Done()
	if st := s.Stats(); st.UsedCost != 0 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A never-acquired ticket's Done releases its queue slot exactly once.
	t2, _ := s.Enqueue(1)
	t3, _ := s.Enqueue(1) // queue slot
	t3.Done()
	t3.Done()
	if st := s.Stats(); st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
	t2.Done()
}
