// Package simmpi is a simulated MPI runtime: ranks are goroutines inside
// one process, point-to-point messages are matched by (source, tag) with
// FIFO ordering, and the usual collectives (barrier, allreduce,
// allgather, split) are provided per communicator.
//
// It reproduces the two properties of real MPI the paper's techniques
// rely on:
//
//   - blocking semantics: receives and collectives block until satisfied,
//     wasting the caller's core exactly as a blocked MPI process does.
//     A blocked rank first busy-waits on an atomic for up to a constant
//     wall-clock budget (spinBudget, about what a park and its wake cost)
//     and only then parks on a condvar: ranks in lockstep are rarely more
//     than tens of microseconds apart, and a futex sleep/wake per
//     exchange costs more than the exchange. It spins only while every
//     runnable rank of every running world can have a processor to
//     itself (GOMAXPROCS > 1 and live minus parked ranks <= GOMAXPROCS,
//     see spinOK), checked on entry and again while it spins: a parked
//     rank holds no core, so it does not stop its peers from spinning;
//     with more runnable ranks than processors a wait parks, because the
//     core it would burn is the one a peer needs. This is a scheduling
//     policy the code decides from what it can observe, not an option:
//     results never depend on it; and
//   - the PMPI interception surface: every blocking call is bracketed by
//     Enter/Exit hooks, and a call that stops spinning and parks is
//     additionally bracketed by IntoPark/OutOfPark (ParkHooks). That is
//     how the DLB library observes idleness without any change to
//     application code: it lends a rank's cores when the rank parks.
//
// Sends use eager (buffered) semantics — they never block — which keeps
// exchange patterns deadlock-free, like small-message MPI in practice.
// Every payload travels in a buffer leased from the world freelist.
package simmpi

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// BlockingHooks receives notifications around every blocking MPI call a
// rank performs — the PMPI interception surface DLB plugs into.
type BlockingHooks interface {
	// IntoBlockingCall is called just before rank may block.
	IntoBlockingCall(rank int)
	// OutOfBlockingCall is called right after the call is satisfied.
	OutOfBlockingCall(rank int)
}

// ParkHooks is the optional park surface of a BlockingHooks value: a
// blocking call that gives up spinning calls IntoPark before it parks
// and OutOfPark once it is satisfied (or its watchdog expires, or the
// world aborts), both nested inside the call's IntoBlockingCall/
// OutOfBlockingCall bracket, at most once per call, and never for a call
// satisfied while spinning. Both run outside every simmpi lock.
type ParkHooks interface {
	IntoPark(rank int)
	OutOfPark(rank int)
}

// World is the process set. Create one with NewWorld, then Run rank
// bodies against it.
type World struct {
	size     int
	perNode  int // ranks per node (block mapping); 0 = all on one node
	hooks    BlockingHooks
	park     ParkHooks  // hooks as ParkHooks, nil when it is not one
	inbox    []*mailbox // one per rank
	worldCom *commShared
	bufs     bufPool // freelist of leased transport buffers
	spinMax  int64   // waits spin while runnable ranks <= spinMax (set by Run; 0 = always park)

	// sent counts each rank's exchanges, indexed by global rank and
	// written only by that rank's goroutine (see Exchanges).
	sent []paddedExchanges

	// Robustness state (see fault.go). steps, sendSeq and faultHits are
	// indexed by rank and touched only by that rank's goroutine.
	watchdog  time.Duration
	faults    *FaultPlan
	steps     []int
	sendSeq   []int64
	faultHits [][]int // [rule][rank] match counts

	// Abort state (see abort): mu guards cause and conds, the condvar of
	// every mailbox and communicator, Split's included.
	mu      sync.Mutex
	cause   error
	conds   []*sync.Cond
	aborted atomic.Bool
}

// Option configures a World.
type Option func(*World)

// WithRanksPerNode sets the node topology: ranks [0,n) share node 0,
// [n,2n) node 1, and so on. Node locality bounds DLB lending.
func WithRanksPerNode(n int) Option {
	return func(w *World) { w.perNode = n }
}

// WithBlockingHooks installs PMPI-style hooks around blocking calls.
func WithBlockingHooks(h BlockingHooks) Option {
	return func(w *World) { w.hooks = h }
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("simmpi: world size must be >= 1, got %d", size)
	}
	w := &World{size: size}
	for _, o := range opts {
		o(w)
	}
	if w.perNode <= 0 {
		w.perNode = size
	}
	w.park, _ = w.hooks.(ParkHooks)
	w.inbox = make([]*mailbox, size)
	for i := range w.inbox {
		w.inbox[i] = newMailbox()
		w.conds = append(w.conds, w.inbox[i].cond)
	}
	w.steps = make([]int, size)
	w.sent = make([]paddedExchanges, size)
	if w.faults != nil {
		w.sendSeq = make([]int64, size)
		w.faultHits = make([][]int, len(w.faults.Rules))
		for i := range w.faultHits {
			w.faultHits[i] = make([]int, size)
		}
	}
	group := make([]int, size)
	for i := range group {
		group[i] = i
	}
	w.worldCom = w.newCommShared(group)
	return w, nil
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// NumNodes reports the number of nodes in the topology.
func (w *World) NumNodes() int { return (w.size + w.perNode - 1) / w.perNode }

// NodeOf reports the node housing the given global rank.
func (w *World) NodeOf(rank int) int { return rank / w.perNode }

// Run spawns one goroutine per rank executing body and waits for all of
// them. As in MPI, the first rank error aborts the world: a rank panic
// (an application error, an injected *FaultError, a point-to-point
// *ErrRankStalled) is recorded once as the cause, every other rank
// unwinds at its next blocking wait or SetStep, and Run returns the
// cause, never the echoes. A collective stall is usually collateral and
// every participant times out on its own, so it does not abort; without
// a cause Run returns the lowest rank's collective stall, if any.
func (w *World) Run(body func(r *Rank)) error {
	w.spinMax = 0
	if p := runtime.GOMAXPROCS(0); p > 1 {
		w.spinMax = int64(p)
	}
	liveRanks.Add(int64(w.size))
	defer liveRanks.Add(-int64(w.size))
	var wg sync.WaitGroup
	stalls := make([]*ErrRankStalled, w.size)
	for rank := 0; rank < w.size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				switch e := recover().(type) {
				case nil, abortEcho:
				case *ErrRankStalled:
					if e.Tag == CollectiveTag {
						stalls[rank] = e
					} else {
						w.abort(e)
					}
				case *FaultError:
					w.abort(e)
				case error:
					// Rank bodies panic(err) on step failures; wrap so
					// typed causes (la.ErrBreakdown, *ErrDiverged, ...)
					// stay reachable through errors.Is/As.
					w.abort(fmt.Errorf("simmpi: rank %d panicked: %w", rank, e))
				default:
					w.abort(fmt.Errorf("simmpi: rank %d panicked: %v", rank, e))
				}
			}()
			r := &Rank{world: w, rank: rank}
			r.Comm = &Comm{world: w, shared: w.worldCom, me: rank}
			body(r)
		}(rank)
	}
	wg.Wait()
	if w.cause != nil {
		return w.cause
	}
	for _, s := range stalls {
		if s != nil {
			return s
		}
	}
	return nil
}

// Exchanges counts what one rank put on the wire: allreduce calls (the
// scalar and the two-slot form), point-to-point messages sent, and the
// float64s those messages carried. The counts follow from the program
// alone, never from how its waits were served.
type Exchanges struct {
	Allreduces int
	Messages   int
	Float64s   int
}

// Add accumulates o into e.
func (e *Exchanges) Add(o Exchanges) {
	e.Allreduces += o.Allreduces
	e.Messages += o.Messages
	e.Float64s += o.Float64s
}

// paddedExchanges keeps each rank's counters on a cache line of their
// own: the ranks bump them on every exchange, side by side.
type paddedExchanges struct {
	Exchanges
	_ [128 - 3*8]byte
}

// Exchanges reports the given global rank's exchange counts. Read it
// after Run returns, or from the rank's own goroutine.
func (w *World) Exchanges(rank int) Exchanges { return w.sent[rank].Exchanges }

// abortEcho is the panic of a rank's blocking wait or SetStep once
// another rank's error has aborted the world; Run drops it.
type abortEcho struct{}

// abort records err as the world's cause unless one is already recorded,
// then wakes every parked wait so it sees the flag and panics with
// abortEcho. The condvars are woken after mu is released: Split
// registers new ones while holding its parent's collective lock.
func (w *World) abort(err error) {
	w.mu.Lock()
	if w.cause == nil {
		w.cause = err
	}
	w.aborted.Store(true)
	conds := w.conds
	w.mu.Unlock()
	for _, c := range conds {
		wake(c)
	}
}

// Rank is the per-goroutine handle: its identity plus the world
// communicator.
type Rank struct {
	world *World
	rank  int
	Comm  *Comm // world communicator
}

// ID reports the global rank index.
func (r *Rank) ID() int { return r.rank }

// Size reports the world size.
func (r *Rank) Size() int { return r.world.size }

// World returns the rank's world.
func (r *Rank) World() *World { return r.world }

// --- point-to-point ---

type msgKey struct {
	src, tag int
}

type message struct {
	payload any
}

// msgQueue is one (source, tag) FIFO. Its buffer is a rewinding slice:
// popped slots are zeroed and a drained queue rewinds to the front of
// its backing array, so steady-state traffic reuses the same storage.
type msgQueue struct {
	buf  []message
	head int
}

// mailbox holds pending messages per (source, tag) with FIFO order.
// Solvers roll their tags forward every exchange, so keys are
// short-lived: a drained key is deleted from the map and its queue
// (with its grown backing array) recycled through the freelist —
// leaving entries in place would grow the map without bound (the
// retention leak the PR-2 pool fix addressed for task queues), and
// remaking queues would allocate on every exchange.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey]*msgQueue
	free   []*msgQueue   // recycled empty queues
	puts   atomic.Uint64 // messages ever enqueued; what a spinning take watches
}

// mailboxQueues is how many queues (of queueCap slots each) a mailbox
// owns from birth. A rank that gets one exchange ahead of its peer holds
// two live keys per source instead of one; whether that first happens in
// a warm-up round or an hour in is up to the scheduler, so the handful a
// halo pattern can need is provisioned up front rather than grown on
// whichever round the interleaving first demands it. Beyond it queues are
// still made one at a time and recycled.
const (
	mailboxQueues = 4
	queueCap      = 2
)

func newMailbox() *mailbox {
	mb := &mailbox{queues: make(map[msgKey]*msgQueue, mailboxQueues)}
	mb.cond = sync.NewCond(&mb.mu)
	slab := make([]msgQueue, mailboxQueues)
	slots := make([]message, mailboxQueues*queueCap)
	mb.free = make([]*msgQueue, mailboxQueues, 2*mailboxQueues)
	for i := range slab {
		slab[i].buf = slots[i*queueCap : i*queueCap : (i+1)*queueCap]
		mb.free[i] = &slab[i]
	}
	return mb
}

func (mb *mailbox) put(key msgKey, m message) {
	mb.mu.Lock()
	q := mb.queues[key]
	if q == nil {
		if k := len(mb.free); k > 0 {
			q = mb.free[k-1]
			mb.free[k-1] = nil
			mb.free = mb.free[:k-1]
		} else {
			q = &msgQueue{}
		}
		mb.queues[key] = q
	}
	q.buf = append(q.buf, m)
	mb.puts.Add(1)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// popLocked removes the head message of key's queue; the caller holds
// mb.mu and has checked the queue is non-empty. A drained queue leaves
// the map and returns to the freelist.
func (mb *mailbox) popLocked(key msgKey, q *msgQueue) message {
	m := q.buf[q.head]
	q.buf[q.head] = message{} // do not pin the payload through the backing array
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
		delete(mb.queues, key)
		mb.free = append(mb.free, q)
	}
	return m
}

// take blocks until a message for key arrives; it reports false if the
// watchdog (zero waits forever) expires or the world aborts first. It
// first spins on the put counter (see waitInfo.spinUntil); then it parks
// on the condvar, bracketed by wd's park bookkeeping (outside the lock),
// and arms the watchdog timer there and only there.
func (mb *mailbox) take(key msgKey, wd waitInfo) (message, bool) {
	var m message
	seen := ^uint64(0)
	if wd.spinUntil(func() bool {
		p := mb.puts.Load()
		if p == seen {
			return false
		}
		seen = p
		var ok bool
		m, ok = mb.tryTake(key)
		return ok
	}) {
		return m, true
	}
	wd.intoPark()
	defer wd.outOfPark() // after the unlock on every return below
	mb.mu.Lock()
	var deadline time.Time
	if wd.watchdog > 0 {
		deadline = time.Now().Add(wd.watchdog)
		defer wakeAfter(mb.cond, wd.watchdog).Stop()
	}
	for {
		if q := mb.queues[key]; q != nil {
			m := mb.popLocked(key, q)
			mb.mu.Unlock()
			return m, true
		}
		if wd.isAborted() || (wd.watchdog > 0 && !time.Now().Before(deadline)) {
			mb.mu.Unlock()
			return message{}, false
		}
		mb.cond.Wait()
	}
}

// wake broadcasts on cond after an empty lock/unlock of cond.L, which
// orders the wakeup after any waiter that checked its deadline or the
// abort flag has entered Wait — without it the broadcast could land
// between check and Wait and be lost.
func wake(cond *sync.Cond) {
	cond.L.Lock()
	cond.L.Unlock() //nolint:staticcheck // empty critical section is the ordering point
	cond.Broadcast()
}

// wakeAfter arms a parked wait's watchdog; the caller stops the timer.
func wakeAfter(cond *sync.Cond, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() { wake(cond) })
}

func (mb *mailbox) tryTake(key msgKey) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	q := mb.queues[key]
	if q == nil {
		return message{}, false
	}
	return mb.popLocked(key, q), true
}

// liveRanks counts the ranks of every world currently inside Run, in
// this process, and parkedRanks those of them parked in a blocking wait;
// the difference, the runnable ranks, is the load the spin policy weighs
// against GOMAXPROCS.
var liveRanks, parkedRanks atomic.Int64

// spinBudget bounds how long a blocking wait spins before it parks. It
// is sized from what a park costs: on a 2-vCPU x86-64 VM,
// BenchmarkParkWake reads a median of ~100 us (87-138 us over ten runs)
// from a send to the return of the parked receive it wakes onto the
// other processor, with a tail into milliseconds, where a spinning
// receive returns within a microsecond or two. Spinning for about what a
// park costs is the competitive spin-then-block rule (Karlin et al.,
// SOSP 1991): a wait never pays much more than twice what it would had
// it known when its peer arrives. Budgets of 25-800 us ran fluid_sync
// equally fast within noise; 200 us is the smallest that kept its
// parks at or below ~6 per step in every run (CHANGES.md). It is a
// constant, not a tunable: results do not depend on it, only how a wait
// spends its first microseconds.
const spinBudget = 200 * time.Microsecond

// spinCheckRounds is how many polls a spin makes between two reads of the
// clock and of the runnable ranks.
const spinCheckRounds = 64

// spinOK reports whether a blocking wait may busy-wait before parking:
// only while every runnable rank can have a processor to itself
// (GOMAXPROCS > 1 and live minus parked ranks <= GOMAXPROCS). A parked
// rank holds no core, so two fluid ranks may spin through their Krylov
// exchanges while two particle ranks sit parked waiting for velocities.
// With more runnable ranks than procs a spinning rank would hold the
// very core a peer needs, so it parks at once.
func (w *World) spinOK() bool { return runnableFit(w.spinMax) }

// runnableFit reports whether the runnable ranks of every running world
// fit spinMax processors (spinMax 0: never).
func runnableFit(spinMax int64) bool {
	return spinMax > 0 && liveRanks.Load()-parkedRanks.Load() <= spinMax
}

// spinUntil is the spin half of every blocking wait: while wd.spin
// allows it polls done, one call and one runtime.Gosched a round, and
// reports true as soon as done does. The yield matters as much as the
// poll: a peer this rank has just woken sits in this P's run queue, and
// Gosched hands it the processor at once. Every spinCheckRounds rounds
// it re-checks the policy and gives up — reports false, and the caller
// parks — once the runnable ranks outnumber GOMAXPROCS (a rank woken
// elsewhere needs the core) or spinBudget has passed since the first
// check. The clock is read only there, so a wait satisfied within its
// first rounds never reads it.
func (wd waitInfo) spinUntil(done func() bool) bool {
	if !wd.spin {
		return false
	}
	var start time.Time
	for i := 1; !done(); i++ {
		if i%spinCheckRounds == 0 {
			if !runnableFit(wd.spinMax) {
				return false
			}
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) >= spinBudget {
				return false
			}
		}
		runtime.Gosched()
	}
	return true
}

// waitFor returns the wait policy and identity of one blocking call by
// rank: whether it may spin (decided on entry, re-checked against
// spinMax while it spins), the watchdog and abort flag a park watches,
// the step to blame on a stall and the park hooks to bracket a park
// with.
func (w *World) waitFor(rank int) waitInfo {
	return waitInfo{spin: w.spinOK(), spinMax: w.spinMax, watchdog: w.watchdog, rank: rank, step: w.stepOf(rank), park: w.park, aborted: &w.aborted}
}

// isAborted reports whether the wait's world has aborted; a waitInfo
// built without a world never has.
func (wd waitInfo) isAborted() bool { return wd.aborted != nil && wd.aborted.Load() }

// giveUp ends a parked wait that did not complete: with abortEcho if its
// world aborted, else as a watchdog stall on tag.
func (wd waitInfo) giveUp(tag int) {
	if wd.isAborted() {
		panic(abortEcho{})
	}
	panic(&ErrRankStalled{Rank: wd.rank, Tag: tag, Step: wd.step})
}

// intoPark is a wait giving up spinning: the rank stops counting as
// runnable, then its park hook (DLB lends its cores) fires. Called with
// no simmpi lock held.
func (wd waitInfo) intoPark() {
	parkedRanks.Add(1)
	if wd.park != nil {
		wd.park.IntoPark(wd.rank)
	}
}

// outOfPark undoes intoPark on every exit from a park — satisfied or
// stalled — in reverse order. Called with no simmpi lock held.
func (wd waitInfo) outOfPark() {
	if wd.park != nil {
		wd.park.OutOfPark(wd.rank)
	}
	parkedRanks.Add(-1)
}

func (w *World) blockEnter(rank int) {
	if w.hooks != nil {
		w.hooks.IntoBlockingCall(rank)
	}
}

func (w *World) blockExit(rank int) {
	if w.hooks != nil {
		w.hooks.OutOfBlockingCall(rank)
	}
}

// --- communicators ---

// Comm is a per-rank communicator handle. Rank indices used by Comm
// methods are indices within the communicator's group, like MPI.
type Comm struct {
	world  *World
	shared *commShared
	me     int // global rank
}

// commShared is the state common to all ranks of a communicator.
type commShared struct {
	group   []int       // global ranks, ascending
	indexOf map[int]int // global rank -> comm rank
	coll    *collective
}

// newCommShared registers the new communicator's condvar for abort.
func (w *World) newCommShared(group []int) *commShared {
	cs := &commShared{group: group, indexOf: make(map[int]int, len(group))}
	for i, g := range group {
		cs.indexOf[g] = i
	}
	cs.coll = newCollective(len(group))
	w.mu.Lock()
	w.conds = append(w.conds, cs.coll.cond)
	w.mu.Unlock()
	return cs
}

// Rank reports this rank's index within the communicator.
func (c *Comm) Rank() int { return c.shared.indexOf[c.me] }

// Size reports the communicator size.
func (c *Comm) Size() int { return len(c.shared.group) }

// send delivers a leased buffer to dst (comm rank) under tag. Eager
// semantics: it never blocks.
func (c *Comm) send(dst, tag int, payload any) {
	x := &c.world.sent[c.me]
	x.Messages++
	if b, ok := payload.(*Float64Buf); ok {
		x.Float64s += len(b.Data)
	}
	if c.world.faults != nil {
		if act, d, ok := c.world.faultFor(FaultSend, c.me, tag); ok {
			switch act {
			case FaultDelay:
				time.Sleep(d)
			case FaultErr:
				panic(&FaultError{Rank: c.me, Op: FaultSend, Tag: tag, Step: c.world.stepOf(c.me)})
			case FaultDrop:
				return // lost in transit
			}
		}
	}
	g := c.shared.group[dst]
	c.world.inbox[g].put(msgKey{src: c.me, tag: tag}, message{payload: payload})
}

// SendFloat64s copies the slice into a leased transport buffer and sends
// it: the sender may mutate data immediately after the call, and the
// buffer recycles through the world freelist once received — no
// steady-state allocation. To skip the copy entirely, fill a leased
// buffer directly (LeaseFloat64s + SendFloat64Buf).
func (c *Comm) SendFloat64s(dst, tag int, data []float64) {
	b := c.LeaseFloat64s(len(data))
	copy(b.Data, data)
	c.send(dst, tag, b)
}

// SendInt32s copies the slice into a leased transport buffer and sends
// it (see SendFloat64s).
func (c *Comm) SendInt32s(dst, tag int, data []int32) {
	b := c.LeaseInt32s(len(data))
	copy(b.Data, data)
	c.send(dst, tag, b)
}

// recv blocks until a message from src (comm rank) with tag arrives and
// returns its payload. With a watchdog installed (WithWatchdog) a wait
// past the deadline panics with *ErrRankStalled, which World.Run returns
// as a typed error.
func (c *Comm) recv(src, tag int) any {
	g := c.shared.group[src]
	key := msgKey{src: g, tag: tag}
	mb := c.world.inbox[c.me]
	if c.world.faults != nil {
		if act, d, ok := c.world.faultFor(FaultRecv, c.me, tag); ok {
			switch act {
			case FaultDelay:
				time.Sleep(d)
			case FaultErr:
				panic(&FaultError{Rank: c.me, Op: FaultRecv, Tag: tag, Step: c.world.stepOf(c.me)})
			case FaultDrop:
				// Discard the message this receive would have matched,
				// then wait for a replacement that never comes: the
				// watchdog surfaces it as a stall.
				c.recvBlocking(mb, key, tag)
			}
		}
	}
	if m, ok := mb.tryTake(key); ok {
		return m.payload
	}
	return c.recvBlocking(mb, key, tag).payload
}

// recvBlocking is the blocking mailbox take bracketed by the PMPI hooks
// and bounded by the world watchdog.
func (c *Comm) recvBlocking(mb *mailbox, key msgKey, tag int) message {
	wd := c.world.waitFor(c.me)
	c.world.blockEnter(c.me)
	m, ok := mb.take(key, wd)
	if !ok {
		wd.giveUp(tag)
	}
	c.world.blockExit(c.me)
	return m
}

// --- collectives ---

// collective implements generation-counted rendezvous for the collective
// operations of one communicator. Besides the generic any-typed slots it
// carries typed slots and result cells for the float64 allreduces the
// step loop issues every iteration (the scalar one and the two-slot sum
// of a fused Krylov reduction): contributing through them avoids the
// interface boxing (one heap allocation per call per rank) the generic
// path pays, making steady-state allreduces allocation-free.
type collective struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	gen     atomic.Uint64 // advanced under mu; loaded lock-free by spinning waiters
	arrived int
	slots   []any
	result  any

	// fslots holds float64 contributions: rank i's scalar at i, its
	// two-slot pair at i and n+i.
	fslots []float64
	resF   [2]float64

	// Keep the struct a whole number of cache lines (128 bytes). Split
	// allocates the new communicators' collectives back to back, and
	// waiters spin on gen: an object that straddled a line would share
	// it with its neighbour's hot fields.
	_ [8]byte
}

func newCollective(n int) *collective {
	c := &collective{
		n:      n,
		slots:  make([]any, n),
		fslots: make([]float64, 2*n),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// waitInfo carries the wait policy of one blocking call — whether it may
// spin and the processor count its spin re-checks the runnable ranks
// against, the watchdog bound (zero waits forever), the park hooks, the
// world's abort flag (nil: never aborts) — and the identity to report if
// the watchdog expires. Passed by value — no allocation on the hot path.
type waitInfo struct {
	spin     bool
	spinMax  int64
	watchdog time.Duration
	rank     int
	step     int
	park     ParkHooks
	aborted  *atomic.Bool
}

// waitLocked blocks until the generation advances past gen; the caller
// holds c.mu and gets it back. It drops the lock, spins on the
// generation (see waitInfo.spinUntil), and only if it still has not moved
// parks: park bookkeeping first (off the lock), then the condvar,
// arming the watchdog timer only there. On expiry it releases c.mu (so
// every other stalled participant can time out too), leaves the park and
// gives up (see giveUp); a world abort ends the wait the same way.
func (c *collective) waitLocked(gen uint64, wd waitInfo) {
	c.mu.Unlock()
	if wd.spinUntil(func() bool { return c.gen.Load() != gen }) || c.gen.Load() != gen {
		c.mu.Lock()
		return
	}
	wd.intoPark()
	c.mu.Lock()
	var deadline time.Time
	if wd.watchdog > 0 {
		deadline = time.Now().Add(wd.watchdog)
		defer wakeAfter(c.cond, wd.watchdog).Stop()
	}
	for c.gen.Load() == gen {
		if wd.isAborted() || (wd.watchdog > 0 && !time.Now().Before(deadline)) {
			c.mu.Unlock()
			wd.outOfPark()
			wd.giveUp(CollectiveTag)
		}
		c.cond.Wait()
	}
	c.mu.Unlock()
	wd.outOfPark()
	c.mu.Lock()
}

// rendezvous deposits this rank's contribution, has the last arriver run
// reduce over all contributions, and returns the common result.
func (c *collective) rendezvous(idx int, contrib any, wd waitInfo, reduce func(slots []any) any) any {
	c.mu.Lock()
	gen := c.gen.Load()
	c.slots[idx] = contrib
	c.arrived++
	if c.arrived == c.n {
		c.result = reduce(c.slots)
		c.arrived = 0
		c.gen.Add(1)
		c.mu.Unlock()
		c.cond.Broadcast()
		return c.result
	}
	c.waitLocked(gen, wd)
	res := c.result
	c.mu.Unlock()
	return res
}

// reduceF64 folds x into acc under op.
func reduceF64(acc, x float64, op ReduceOp) float64 {
	switch op {
	case OpSum:
		return acc + x
	case OpMax:
		if x > acc {
			return x
		}
	case OpMin:
		if x < acc {
			return x
		}
	}
	return acc
}

// rendezvousF64 is the typed scalar-float64 rendezvous: contributions
// and result stay unboxed, so a steady-state allreduce allocates
// nothing. The fold walks slots in ascending rank order, exactly like
// the generic path, so results are bit-identical.
func (c *collective) rendezvousF64(idx int, v float64, op ReduceOp, wd waitInfo) float64 {
	c.mu.Lock()
	gen := c.gen.Load()
	c.fslots[idx] = v
	c.arrived++
	if c.arrived == c.n {
		acc := c.fslots[0]
		for _, x := range c.fslots[1:c.n] {
			acc = reduceF64(acc, x, op)
		}
		c.resF[0] = acc
		c.arrived = 0
		c.gen.Add(1)
		c.mu.Unlock()
		c.cond.Broadcast()
		return acc
	}
	c.waitLocked(gen, wd)
	res := c.resF[0]
	c.mu.Unlock()
	return res
}

// rendezvousSum2 is the typed two-slot sum: each component is folded
// over the ranks in ascending order from rank 0's value, exactly as
// rendezvousF64 folds an OpSum, so it equals two scalar allreduces bit
// for bit in one synchronisation.
func (c *collective) rendezvousSum2(idx int, a, b float64, wd waitInfo) (float64, float64) {
	c.mu.Lock()
	gen := c.gen.Load()
	c.fslots[idx], c.fslots[c.n+idx] = a, b
	c.arrived++
	if c.arrived == c.n {
		sa, sb := c.fslots[:c.n], c.fslots[c.n:]
		accA, accB := sa[0], sb[0]
		for i := 1; i < c.n; i++ {
			accA += sa[i]
			accB += sb[i]
		}
		c.resF = [2]float64{accA, accB}
		c.arrived = 0
		c.gen.Add(1)
		c.mu.Unlock()
		c.cond.Broadcast()
		return accA, accB
	}
	c.waitLocked(gen, wd)
	res := c.resF
	c.mu.Unlock()
	return res[0], res[1]
}

// collEnter runs the fault hook for a collective operation and returns
// the wait identity for its rendezvous. FaultDrop simulates a dead rank:
// the rank never arrives, so with a watchdog installed it and every peer
// stall out; without one it blocks forever, like real MPI.
func (c *Comm) collEnter() waitInfo {
	w := c.world
	if w.faults != nil {
		if act, d, ok := w.faultFor(FaultCollective, c.me, CollectiveTag); ok {
			switch act {
			case FaultDelay:
				time.Sleep(d)
			case FaultErr:
				panic(&FaultError{Rank: c.me, Op: FaultCollective, Tag: CollectiveTag, Step: w.stepOf(c.me)})
			case FaultDrop:
				if w.watchdog > 0 {
					time.Sleep(w.watchdog)
				} else {
					select {} // dead rank, no watchdog: hang as real MPI would
				}
				panic(&ErrRankStalled{Rank: c.me, Tag: CollectiveTag, Step: w.stepOf(c.me)})
			}
		}
	}
	return w.waitFor(c.me)
}

// Barrier blocks until every rank of the communicator arrives.
func (c *Comm) Barrier() {
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	c.shared.coll.rendezvous(c.Rank(), nil, wd, func([]any) any { return nil })
	c.world.blockExit(c.me)
}

// ReduceOp selects the combining operation of an allreduce.
type ReduceOp uint8

// Reduce operations.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// AllreduceFloat64 combines one value from every rank. Contributions
// travel through typed slots, so a steady-state call allocates nothing.
func (c *Comm) AllreduceFloat64(v float64, op ReduceOp) float64 {
	c.world.sent[c.me].Allreduces++
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	res := c.shared.coll.rendezvousF64(c.Rank(), v, op, wd)
	c.world.blockExit(c.me)
	return res
}

// AllreduceSum2 sums two values over every rank in one rendezvous; each
// result equals AllreduceFloat64(v, OpSum) of that component bit for
// bit. Like AllreduceFloat64 it allocates nothing in steady state.
func (c *Comm) AllreduceSum2(a, b float64) (float64, float64) {
	c.world.sent[c.me].Allreduces++
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	ra, rb := c.shared.coll.rendezvousSum2(c.Rank(), a, b, wd)
	c.world.blockExit(c.me)
	return ra, rb
}

// AllgatherInt32s collects one []int32 per rank, indexed by comm rank.
// Each row is a private copy of that rank's contribution, made before the
// rendezvous, and every rank receives the same table: the result is
// read-only.
func (c *Comm) AllgatherInt32s(v []int32) [][]int32 {
	cp := make([]int32, len(v))
	copy(cp, v)
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	res := c.shared.coll.rendezvous(c.Rank(), cp, wd, func(slots []any) any {
		out := make([][]int32, len(slots))
		for i, s := range slots {
			out[i], _ = s.([]int32)
		}
		return out
	})
	c.world.blockExit(c.me)
	return res.([][]int32)
}

// Split partitions the communicator by color, ordering ranks by (key,
// rank), and returns each caller's new communicator — MPI_Comm_split.
// Every rank of the communicator must call it.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, commRank int }
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	res := c.shared.coll.rendezvous(c.Rank(), entry{color, key, c.Rank()}, wd, func(slots []any) any {
		byColor := map[int][]entry{}
		for _, s := range slots {
			e := s.(entry)
			byColor[e.color] = append(byColor[e.color], e)
		}
		shared := map[int]*commShared{}
		for col, entries := range byColor {
			sort.Slice(entries, func(i, j int) bool {
				if entries[i].key != entries[j].key {
					return entries[i].key < entries[j].key
				}
				return entries[i].commRank < entries[j].commRank
			})
			group := make([]int, len(entries))
			for i, e := range entries {
				group[i] = c.shared.group[e.commRank]
			}
			shared[col] = c.world.newCommShared(group)
		}
		return shared
	})
	c.world.blockExit(c.me)
	shared := res.(map[int]*commShared)[color]
	return &Comm{world: c.world, shared: shared, me: c.me}
}
