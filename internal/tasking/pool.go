// Package tasking implements the shared-memory runtime the paper layers
// over MPI: an OmpSs/OpenMP-like system with
//
//   - a worker pool whose size can be changed while tasks run (the
//     malleability DLB exploits via omp_set_num_threads),
//   - parallel loops with dynamic chunk scheduling,
//   - a task graph supporting In/Out/Inout dependences plus the OpenMP 5.0
//     features the paper evaluates: mutexinoutset dependences and
//     dependence lists computed at run time ("multidependences"), and
//   - the three matrix assembly strategies compared in the paper:
//     Atomics, Coloring, and Multidependences.
package tasking

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a resizable worker pool. A Pool with maxWorkers goroutines can
// execute at most SetWorkers(n) tasks concurrently; n can be raised and
// lowered at any time, taking effect at task granularity (running tasks
// are never preempted). This models OpenMP thread teams resized through
// omp_set_num_threads, which is the mechanism DLB drives.
type Pool struct {
	mu       sync.Mutex
	workCond *sync.Cond // workers wait here for tasks / activation
	idleCond *sync.Cond // Wait() callers wait here

	// queue is a rewinding FIFO: qhead indexes the next task, popped
	// slots are zeroed (so finished closures are not pinned), and when
	// the queue drains it rewinds to the front of the same backing array
	// instead of reallocating — steady-state submission is
	// allocation-free once the backing has grown to the burst size.
	queue   []queueEntry
	qhead   int
	target  int // current allowed concurrency
	max     int // spawned workers
	running int // tasks currently executing
	pending int // queued + running
	closed  bool

	// loopMu guards the freelist of reusable ParallelFor states.
	loopMu sync.Mutex
	loops  []*loopState
}

// NewPool creates a pool with max worker goroutines, initially all active.
func NewPool(max int) *Pool {
	if max < 1 {
		max = 1
	}
	p := &Pool{target: max, max: max}
	p.workCond = sync.NewCond(&p.mu)
	p.idleCond = sync.NewCond(&p.mu)
	for i := 0; i < max; i++ {
		go p.worker(i)
	}
	return p
}

// queueEntry is one queued task. loop is non-nil for ParallelFor helper
// pullers, which lets a finishing loop reclaim its still-queued helpers
// (fn set to nil — a tombstone workers discard) instead of leaving them
// to run later as no-ops.
type queueEntry struct {
	fn   func()
	loop *loopState
}

func (p *Pool) worker(id int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for !p.closed {
			// Discard tombstoned helpers in place; their pending count
			// was already dropped when their loop reclaimed them.
			for p.qhead < len(p.queue) && p.queue[p.qhead].fn == nil {
				p.advanceHead()
			}
			if id < p.target && p.qhead < len(p.queue) {
				break
			}
			p.workCond.Wait()
		}
		if p.closed {
			return
		}
		task := p.queue[p.qhead].fn
		p.advanceHead()
		p.running++
		p.mu.Unlock()
		task()
		p.mu.Lock()
		p.running--
		p.pending--
		if p.pending == 0 {
			p.idleCond.Broadcast()
		}
	}
}

// advanceHead pops the head slot (caller holds p.mu). The slot is zeroed
// — the backing array keeps every element up to its capacity reachable,
// so leaving the closure in place would pin it (and everything it
// captures) for the lifetime of the queue's allocation — and a drained
// queue rewinds to the front of the same backing array instead of
// reallocating, so steady-state submission is allocation-free.
func (p *Pool) advanceHead() {
	p.queue[p.qhead] = queueEntry{}
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue = p.queue[:0]
		p.qhead = 0
	}
}

// Submit enqueues a task for execution.
func (p *Pool) Submit(task func()) {
	if task == nil {
		// nil fn is the tombstone encoding for reclaimed loop helpers; a
		// nil user task would silently leak p.pending and hang Wait.
		panic("tasking: Submit of nil task")
	}
	p.submit(queueEntry{fn: task})
}

func (p *Pool) submit(e queueEntry) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("tasking: Submit on closed pool")
	}
	p.queue = append(p.queue, e)
	p.pending++
	p.mu.Unlock()
	p.workCond.Broadcast()
}

// SetWorkers changes the allowed concurrency, clamped to [1, max].
// Raising it wakes parked workers immediately when tasks are queued for
// them; on an empty queue there is nothing to run, and the next submit
// broadcasts anyway. Lowering it takes effect as running tasks finish.
// DLB transitions are frequent, so avoiding spurious broadcasts matters.
func (p *Pool) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > p.max {
		n = p.max
	}
	p.mu.Lock()
	wake := n > p.target && p.qhead < len(p.queue)
	p.target = n
	p.mu.Unlock()
	if wake {
		p.workCond.Broadcast()
	}
}

// Workers reports the current allowed concurrency.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// MaxWorkers reports the pool's spawned worker count.
func (p *Pool) MaxWorkers() int { return p.max }

// Pending reports queued plus running tasks.
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Wait blocks until every submitted task has finished.
func (p *Pool) Wait() {
	p.mu.Lock()
	for p.pending > 0 {
		p.idleCond.Wait()
	}
	p.mu.Unlock()
}

// Close shuts the pool down after the queue drains. Tasks submitted after
// Close panic.
func (p *Pool) Close() {
	p.Wait()
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.workCond.Broadcast()
}

// ParallelFor executes body(lo,hi) over [0,n) split into dynamically
// scheduled chunks, blocking until the whole range is processed. The
// chunk size adapts to the pool's current concurrency; pass grain > 0 to
// force a chunk size — chunks are then the fixed ranges
// [k*grain, (k+1)*grain) regardless of the worker count, the property
// the deterministic la reductions rely on.
//
// The calling goroutine participates as a chunk puller, so ParallelFor
// is safe to call from inside a pool task: even when every worker is
// busy (including the degenerate case of a one-worker pool whose only
// worker is executing the caller), the caller drains the range itself
// and the loop completes instead of deadlocking on queued helpers that
// can never run. Helpers still queued when the range is exhausted
// execute later as no-ops.
//
// Concurrency semantics: this is OpenMP's master-participation model —
// the encountering thread joins the team — so a loop executes on up to
// SetWorkers(n)+1 goroutines: n pool workers plus the caller. The
// SetWorkers bound on Submit-ted tasks is unaffected. (The caller
// cannot be throttled without reintroducing the nested deadlock;
// TestParallelForConcurrencyBound pins the +1.)
func (p *Pool) ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (p.Workers() * 8)
		if grain < 1 {
			grain = 1
		}
	}
	l := p.getLoop()
	l.n, l.grain, l.body = n, grain, body
	atomic.StoreInt64(&l.next, 0)
	atomic.StoreInt64(&l.done, 0)
	// Submit one helper per potential extra worker so that concurrency
	// raised mid-loop (DLB lending) is exploited; the caller is itself a
	// puller, so max-1 helpers saturate the pool.
	nHelpers := p.max - 1
	if maxUseful := (n+grain-1)/grain - 1; nHelpers > maxUseful {
		nHelpers = maxUseful
	}
	atomic.StoreInt32(&l.refs, int32(nHelpers)+1)
	for i := 0; i < nHelpers; i++ {
		p.submit(queueEntry{fn: l.helper, loop: l})
	}
	l.pull()
	// The caller ran out of chunks, but helpers may still be executing
	// theirs; completion is signalled by whichever puller finishes the
	// last chunk (possibly the caller itself, above).
	l.mu.Lock()
	for atomic.LoadInt64(&l.done) != int64(n) {
		l.cond.Wait()
	}
	l.mu.Unlock()
	// Reclaim helpers that never left the queue (tombstoning them) so the
	// state can recycle immediately instead of waiting for no-op pullers
	// to be scheduled. All chunks have run, so no puller can reach body
	// anymore: drop the caller's closure before the state idles on the
	// freelist.
	reclaimed := p.reclaimHelpers(l)
	l.body = nil
	if atomic.AddInt32(&l.refs, -int32(reclaimed+1)) == 0 {
		p.putLoop(l)
	}
}

// reclaimHelpers tombstones the still-queued helper entries of loop l and
// returns how many it removed; workers discard tombstones without running
// them.
func (p *Pool) reclaimHelpers(l *loopState) int {
	p.mu.Lock()
	removed := 0
	for i := p.qhead; i < len(p.queue); i++ {
		if p.queue[i].loop == l {
			p.queue[i] = queueEntry{}
			removed++
		}
	}
	if removed > 0 {
		p.pending -= removed
		if p.pending == 0 {
			p.idleCond.Broadcast()
		}
	}
	p.mu.Unlock()
	return removed
}

// loopState is the reusable state of one ParallelFor execution. States
// cycle through a per-pool freelist so a steady-state loop allocates
// nothing; a state returns to the freelist only when the caller and
// every submitted helper have dropped their reference, which is what
// makes recycling safe in the presence of stale helpers (queued pullers
// that run after the range is exhausted and become no-ops).
type loopState struct {
	pool *Pool
	mu   sync.Mutex
	cond *sync.Cond // caller waits here for the last chunk

	next int64 // atomic: next unclaimed iteration
	done int64 // atomic: iterations completed
	refs int32 // atomic: caller + helpers still holding the state

	n, grain int
	body     func(lo, hi int)
	helper   func() // prebuilt Submit-able puller (captures only the state)
}

func (p *Pool) getLoop() *loopState {
	p.loopMu.Lock()
	if k := len(p.loops); k > 0 {
		l := p.loops[k-1]
		p.loops[k-1] = nil
		p.loops = p.loops[:k-1]
		p.loopMu.Unlock()
		return l
	}
	p.loopMu.Unlock()
	l := &loopState{pool: p}
	l.cond = sync.NewCond(&l.mu)
	l.helper = func() {
		l.pull()
		l.release()
	}
	return l
}

func (l *loopState) release() {
	if atomic.AddInt32(&l.refs, -1) == 0 {
		l.pool.putLoop(l)
	}
}

func (p *Pool) putLoop(l *loopState) {
	p.loopMu.Lock()
	p.loops = append(p.loops, l)
	p.loopMu.Unlock()
}

// pull claims fixed chunks until the range is exhausted. A stale helper
// finds next already past n and returns without touching body.
func (l *loopState) pull() {
	n := int64(l.n)
	grain := int64(l.grain)
	for {
		lo := atomic.AddInt64(&l.next, grain) - grain
		if lo >= n {
			return
		}
		hi := lo + grain
		if hi > n {
			hi = n
		}
		l.body(int(lo), int(hi))
		if atomic.AddInt64(&l.done, hi-lo) == n {
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	}
}

// String describes the pool state for diagnostics.
func (p *Pool) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("pool{target=%d max=%d running=%d queued=%d}",
		p.target, p.max, p.running, len(p.queue)-p.qhead)
}
