package tasking

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolQueueSlotsReleased guards the queue memory-retention fix: a
// popped task closure must not stay reachable through the queue's
// backing array, or everything the closure captures (particle buffers,
// matrices) is pinned until the array is reallocated.
func TestPoolQueueSlotsReleased(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	pool.Submit(func() {
		close(started)
		<-release
	})
	<-started // the single worker is now parked inside the blocker

	var ran int32
	for i := 0; i < 8; i++ {
		pool.Submit(func() { atomic.AddInt32(&ran, 1) })
	}
	pool.mu.Lock()
	backing := pool.queue // snapshot of the 8 queued closures
	pool.mu.Unlock()
	if len(backing) != 8 {
		t.Fatalf("queued %d tasks, want 8", len(backing))
	}

	close(release)
	pool.Wait()
	if atomic.LoadInt32(&ran) != 8 {
		t.Fatalf("ran %d/8 tasks", ran)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for i, slot := range backing {
		if slot.fn != nil {
			t.Fatalf("backing slot %d still holds its task closure after pop", i)
		}
	}
}

// TestPoolQueueRewindsBackingOnDrain checks that a drained queue rewinds
// and reuses its backing array: capacity stays bounded by the burst size
// across many rounds (no ever-growing tail), and every popped slot is nil
// so the retained capacity pins nothing.
func TestPoolQueueRewindsBackingOnDrain(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for round := 0; round < 8; round++ {
		for i := 0; i < 32; i++ {
			pool.Submit(func() {})
		}
		pool.Wait()
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if c := cap(pool.queue); c > 64 {
		t.Fatalf("drained queue backing grew to cap %d after 8 rounds of 32 submissions", c)
	}
	for i, slot := range pool.queue[:cap(pool.queue)] {
		if slot.fn != nil {
			t.Fatalf("drained queue retains a task closure in backing slot %d", i)
		}
	}
}

// TestSetWorkersRaiseWakesOnlyForQueuedTasks pins both sides of the
// raise's wakeup rule on a two-worker pool throttled to one, whose only
// allowed worker (id 0) is held inside a blocker: a task queued before
// the raise runs on the newly allowed worker as the raise broadcasts, and
// after a raise on an empty queue (no broadcast) the next Submit's own
// broadcast still gets a task there. Either way the task completes while
// worker 0 is still blocked, so it ran on worker 1.
func TestSetWorkersRaiseWakesOnlyForQueuedTasks(t *testing.T) {
	for _, queuedFirst := range []bool{true, false} {
		pool := NewPool(2)
		pool.SetWorkers(1)
		started, release := make(chan struct{}), make(chan struct{})
		pool.Submit(func() {
			close(started)
			<-release
		})
		<-started
		ran := make(chan struct{})
		task := func() { close(ran) }
		if queuedFirst {
			pool.Submit(task)
			pool.mu.Lock()
			queued := len(pool.queue) - pool.qhead
			pool.mu.Unlock()
			if queued != 1 {
				t.Fatalf("throttled pool: %d tasks queued, want the 1 worker 1 may not take", queued)
			}
			pool.SetWorkers(2)
		} else {
			pool.mu.Lock()
			queued := len(pool.queue) - pool.qhead
			pool.mu.Unlock()
			if queued != 0 {
				t.Fatalf("%d tasks queued before the raise, want an empty queue", queued)
			}
			pool.SetWorkers(2)
			pool.Submit(task)
		}
		select {
		case <-ran:
		case <-time.After(30 * time.Second):
			t.Fatalf("queuedFirst=%v: task never ran on the newly allowed worker", queuedFirst)
		}
		close(release)
		pool.Close()
	}
}

// TestParallelForZeroAllocSteadyState pins the zero-allocation contract
// of the loop machinery: after warmup (loop states on the freelist, the
// queue backing grown), a ParallelFor with a prebuilt body allocates
// nothing — the property the solver kernels and the particle step rely
// on for an allocation-free steady state.
func TestParallelForZeroAllocSteadyState(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		var sink int64
		body := func(lo, hi int) { atomic.AddInt64(&sink, int64(hi-lo)) }
		for i := 0; i < 20; i++ { // warm the freelist and queue backing
			pool.ParallelFor(4096, 64, body)
		}
		avg := testing.AllocsPerRun(50, func() {
			pool.ParallelFor(4096, 64, body)
		})
		if avg != 0 {
			t.Errorf("workers=%d: ParallelFor allocates %.2f objects per call in steady state, want 0", workers, avg)
		}
		pool.Close()
	}
}

// TestParallelForInsidePoolTask is the nested-deadlock regression: a
// ParallelFor issued from inside a pool task used to hang forever on a
// saturated pool, because its helper pullers could never be scheduled.
// The calling goroutine now participates as a puller, so the loop must
// complete even on a one-worker pool whose only worker is the caller.
func TestParallelForInsidePoolTask(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()

	var sum int64
	done := make(chan struct{})
	pool.Submit(func() {
		defer close(done)
		pool.ParallelFor(1000, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&sum, int64(i))
			}
		})
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ParallelFor inside a pool task deadlocked")
	}
	if want := int64(1000 * 999 / 2); atomic.LoadInt64(&sum) != want {
		t.Fatalf("nested loop covered sum %d, want %d", sum, want)
	}
	pool.Wait() // stale helper no-ops must drain cleanly
}

// TestParallelForDoublyNested exercises ParallelFor inside a ParallelFor
// body — the shape the threaded solver kernels can hit when a pool task
// reaches a vector kernel.
func TestParallelForDoublyNested(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()

	var count int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.ParallelFor(8, 1, func(lo, hi int) {
			pool.ParallelFor(100, 0, func(ilo, ihi int) {
				atomic.AddInt64(&count, int64(ihi-ilo))
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("doubly nested ParallelFor deadlocked")
	}
	if atomic.LoadInt64(&count) != 800 {
		t.Fatalf("covered %d iterations, want 800", count)
	}
}

// TestParallelForConcurrencyBound pins the loop's team size: at most
// SetWorkers(n) pool workers plus the participating caller run bodies
// concurrently (OpenMP master-participation semantics). A throttled
// pool must not see the whole worker complement join the loop.
func TestParallelForConcurrencyBound(t *testing.T) {
	pool := NewPool(8)
	defer pool.Close()
	pool.SetWorkers(2)
	var cur, max int32
	pool.ParallelFor(256, 1, func(lo, hi int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			m := atomic.LoadInt32(&max)
			if c <= m || atomic.CompareAndSwapInt32(&max, m, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		atomic.AddInt32(&cur, -1)
	})
	if got := atomic.LoadInt32(&max); got > 3 {
		t.Fatalf("observed %d concurrent loop bodies with SetWorkers(2)+caller, want <= 3", got)
	}
}

// TestParallelForFixedGrainChunks pins the fixed-chunk contract the
// deterministic reductions rely on: with grain > 0 the chunks are
// exactly [k*grain, min((k+1)*grain, n)) whatever the worker count.
func TestParallelForFixedGrainChunks(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := NewPool(workers)
		const n, grain = 1037, 64
		seen := make([]int32, (n+grain-1)/grain)
		pool.ParallelFor(n, grain, func(lo, hi int) {
			if lo%grain != 0 {
				t.Errorf("chunk start %d not a multiple of grain %d", lo, grain)
			}
			want := lo + grain
			if want > n {
				want = n
			}
			if hi != want {
				t.Errorf("chunk [%d,%d), want [%d,%d)", lo, hi, lo, want)
			}
			atomic.AddInt32(&seen[lo/grain], 1)
		})
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: chunk %d executed %d times", workers, k, c)
			}
		}
		pool.Close()
	}
}
