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
//     A blocked rank first busy-waits on an atomic for a small constant
//     budget (spinRounds, a few microseconds) and only then parks on a
//     condvar: ranks in lockstep are rarely more than microseconds apart,
//     and a futex sleep/wake per exchange costs more than the exchange.
//     It spins only while every runnable rank of every running world can
//     have a processor to itself (GOMAXPROCS > 1 and live minus parked
//     ranks <= GOMAXPROCS, see spinOK): a parked rank holds no core, so
//     it does not stop its peers from spinning; with more runnable ranks
//     than processors a wait parks at once, because the core it would
//     burn is the one a peer needs. This is a scheduling policy the code
//     decides from what it can observe, not an option: results never
//     depend on it; and
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
	"errors"
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
// and OutOfPark once it is satisfied (or its watchdog expires), both
// nested inside the call's IntoBlockingCall/OutOfBlockingCall bracket,
// at most once per call, and never for a call satisfied while spinning.
// Both run outside every simmpi lock.
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

	// Robustness state (see fault.go). steps, sendSeq and faultHits are
	// indexed by rank and touched only by that rank's goroutine.
	watchdog  time.Duration
	faults    *FaultPlan
	steps     []int
	sendSeq   []int64
	faultHits [][]int // [rule][rank] match counts
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
	}
	w.steps = make([]int, size)
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
	w.worldCom = newCommShared(group)
	return w, nil
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// NumNodes reports the number of nodes in the topology.
func (w *World) NumNodes() int { return (w.size + w.perNode - 1) / w.perNode }

// NodeOf reports the node housing the given global rank.
func (w *World) NodeOf(rank int) int { return rank / w.perNode }

// RanksOnNode lists the global ranks housed on a node.
func (w *World) RanksOnNode(node int) []int {
	lo := node * w.perNode
	hi := lo + w.perNode
	if hi > w.size {
		hi = w.size
	}
	ranks := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}

// Run spawns one goroutine per rank executing body and waits for all of
// them. A panic in any rank is recovered and returned as an error after
// the remaining ranks finish or the panic cascades (callers should treat
// an error as fatal for the whole world). Typed robustness panics —
// *ErrRankStalled from the watchdog, *FaultError from an injected fault
// — are returned as-is so errors.As works on them; a root-cause error is
// preferred over the collateral stalls it leaves in peer ranks.
func (w *World) Run(body func(r *Rank)) error {
	w.spinMax = 0
	if p := runtime.GOMAXPROCS(0); p > 1 {
		w.spinMax = int64(p)
	}
	liveRanks.Add(int64(w.size))
	defer liveRanks.Add(-int64(w.size))
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for rank := 0; rank < w.size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					switch e := p.(type) {
					case *ErrRankStalled:
						errs[rank] = e
					case *FaultError:
						errs[rank] = e
					case error:
						// Rank bodies panic(err) on step failures; wrap so
						// typed causes (la.ErrBreakdown, *ErrDiverged, ...)
						// stay reachable through errors.Is/As.
						errs[rank] = fmt.Errorf("simmpi: rank %d panicked: %w", rank, e)
					default:
						errs[rank] = fmt.Errorf("simmpi: rank %d panicked: %v", rank, p)
					}
				}
			}()
			r := &Rank{world: w, rank: rank}
			r.Comm = &Comm{world: w, shared: w.worldCom, me: rank}
			body(r)
		}(rank)
	}
	wg.Wait()
	// Prefer root causes: any non-stall error first, then a
	// point-to-point stall (it names the missing message), and only
	// last a collective stall, which is usually collateral from a peer
	// that died or stalled elsewhere.
	var stall *ErrRankStalled
	for _, err := range errs {
		if err == nil {
			continue
		}
		var rs *ErrRankStalled
		if errors.As(err, &rs) {
			if stall == nil || (stall.Tag == CollectiveTag && rs.Tag != CollectiveTag) {
				stall = rs
			}
			continue
		}
		return err
	}
	if stall != nil {
		return stall
	}
	return nil
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

// Node reports the node housing this rank.
func (r *Rank) Node() int { return r.world.NodeOf(r.rank) }

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

// take blocks until a message for key arrives, or until the watchdog
// (zero waits forever) expires; it reports false on expiry. With wd.spin
// it first busy-waits on the put counter for the spin budget; then it
// parks on the condvar, bracketed by wd's park bookkeeping (outside the
// lock), and arms the watchdog timer there and only there (see
// wakeAfter).
func (mb *mailbox) take(key msgKey, wd waitInfo) (message, bool) {
	if wd.spin {
		for i, seen := 0, ^uint64(0); i < spinRounds; i++ {
			if p := mb.puts.Load(); p != seen {
				seen = p
				if m, ok := mb.tryTake(key); ok {
					return m, true
				}
			}
			runtime.Gosched()
		}
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
		if wd.watchdog > 0 && !time.Now().Before(deadline) {
			mb.mu.Unlock()
			return message{}, false
		}
		mb.cond.Wait()
	}
}

// wakeAfter arms the watchdog of a wait about to park on cond: after d
// it broadcasts, following an empty lock/unlock of cond.L, which orders
// the wakeup after any waiter that checked its deadline has entered Wait
// — without it the broadcast could land between check and Wait and be
// lost. The caller stops the timer when its wait ends.
func wakeAfter(cond *sync.Cond, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		cond.L.Lock()
		cond.L.Unlock() //nolint:staticcheck // empty critical section is the ordering point
		cond.Broadcast()
	})
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

// spinRounds is the busy-wait budget of a blocking wait, in rounds of one
// atomic load plus one runtime.Gosched (~125 ns a round, so ~8 us): about
// what parking and being woken costs, so a rank a few microseconds ahead
// of its peer never pays for a futex. The yield matters as much as the
// load: a peer this rank has just woken sits in this P's run queue, and
// Gosched hands it the processor at once instead of after the budget. It
// is a constant, not a tunable: results do not depend on it, only how a
// wait spends its first microseconds.
const spinRounds = 64

// spinOK reports whether a blocking wait may busy-wait before parking:
// only while every runnable rank can have a processor to itself
// (GOMAXPROCS > 1 and live minus parked ranks <= GOMAXPROCS). A parked
// rank holds no core, so two fluid ranks may spin through their Krylov
// exchanges while two particle ranks sit parked waiting for velocities.
// With more runnable ranks than procs a spinning rank would hold the
// very core a peer needs, so it parks at once.
func (w *World) spinOK() bool {
	return w.spinMax > 0 && liveRanks.Load()-parkedRanks.Load() <= w.spinMax
}

// waitFor returns the wait policy and identity of one blocking call by
// rank: whether it may spin (decided once, on entry), the watchdog, the
// step to blame on a stall and the park hooks to bracket a park with.
func (w *World) waitFor(rank int) waitInfo {
	return waitInfo{spin: w.spinOK(), watchdog: w.watchdog, rank: rank, step: w.stepOf(rank), park: w.park}
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

func newCommShared(group []int) *commShared {
	cs := &commShared{group: group, indexOf: make(map[int]int, len(group))}
	for i, g := range group {
		cs.indexOf[g] = i
	}
	cs.coll = newCollective(len(group))
	return cs
}

// Rank reports this rank's index within the communicator.
func (c *Comm) Rank() int { return c.shared.indexOf[c.me] }

// Size reports the communicator size.
func (c *Comm) Size() int { return len(c.shared.group) }

// GlobalRank translates a communicator rank to a world rank.
func (c *Comm) GlobalRank(commRank int) int { return c.shared.group[commRank] }

// send delivers a leased buffer to dst (comm rank) under tag. Eager
// semantics: it never blocks.
func (c *Comm) send(dst, tag int, payload any) {
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
		panic(&ErrRankStalled{Rank: c.me, Tag: tag, Step: wd.step})
	}
	c.world.blockExit(c.me)
	return m
}

// --- collectives ---

// collective implements generation-counted rendezvous for the collective
// operations of one communicator. Besides the generic any-typed slots it
// carries typed slot arrays and result cells for the scalar allreduces
// and the gather the step loop issues every iteration: contributing through
// them avoids the interface boxing (one heap allocation per call per
// rank) the generic path pays, making steady-state allreduces
// allocation-free.
type collective struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	gen     atomic.Uint64 // advanced under mu; loaded lock-free by spinning waiters
	arrived int
	slots   []any
	result  any

	fslots []float64 // scalar float64 contributions
	islots []int     // scalar int contributions
	resF   float64
	resI   int
	resBuf []float64 // gathered slice, copied out under the lock

	// Keep the struct a whole number of cache lines (192 bytes). Split
	// allocates the new communicators' collectives back to back, and
	// waiters spin on gen: an object that straddled a line would share
	// it with its neighbour's hot fields.
	_ [24]byte
}

func newCollective(n int) *collective {
	c := &collective{
		n:      n,
		slots:  make([]any, n),
		fslots: make([]float64, n),
		islots: make([]int, n),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// waitInfo carries the wait policy of one blocking call — whether it may
// spin, the watchdog bound (zero waits forever), the park hooks — and the
// identity to report if the watchdog expires. Passed by value — no
// allocation on the hot path.
type waitInfo struct {
	spin     bool
	watchdog time.Duration
	rank     int
	step     int
	park     ParkHooks
}

// waitLocked blocks until the generation advances past gen; the caller
// holds c.mu and gets it back. It drops the lock, busy-waits for the spin
// budget when wd.spin allows, and only if the generation still has not
// moved parks: park bookkeeping first (off the lock), then the condvar,
// arming the watchdog timer only there. On expiry it releases c.mu (so
// every other stalled participant can time out too), leaves the park and
// panics with *ErrRankStalled.
func (c *collective) waitLocked(gen uint64, wd waitInfo) {
	c.mu.Unlock()
	if wd.spin {
		for i := 0; i < spinRounds && c.gen.Load() == gen; i++ {
			runtime.Gosched()
		}
	}
	if c.gen.Load() != gen {
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
		if wd.watchdog > 0 && !time.Now().Before(deadline) {
			c.mu.Unlock()
			wd.outOfPark()
			panic(&ErrRankStalled{Rank: wd.rank, Tag: CollectiveTag, Step: wd.step})
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

// reduceInt folds x into acc under op.
func reduceInt(acc, x int, op ReduceOp) int {
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
		for _, x := range c.fslots[1:] {
			acc = reduceF64(acc, x, op)
		}
		c.resF = acc
		c.arrived = 0
		c.gen.Add(1)
		c.mu.Unlock()
		c.cond.Broadcast()
		return acc
	}
	c.waitLocked(gen, wd)
	res := c.resF
	c.mu.Unlock()
	return res
}

// rendezvousInt is the typed scalar-int rendezvous (see rendezvousF64).
func (c *collective) rendezvousInt(idx int, v int, op ReduceOp, wd waitInfo) int {
	c.mu.Lock()
	gen := c.gen.Load()
	c.islots[idx] = v
	c.arrived++
	if c.arrived == c.n {
		acc := c.islots[0]
		for _, x := range c.islots[1:] {
			acc = reduceInt(acc, x, op)
		}
		c.resI = acc
		c.arrived = 0
		c.gen.Add(1)
		c.mu.Unlock()
		c.cond.Broadcast()
		return acc
	}
	c.waitLocked(gen, wd)
	res := c.resI
	c.mu.Unlock()
	return res
}

// copyOutLocked copies the collective result buffer into dst (grown only
// if too small); the caller holds c.mu, which orders the copy against
// the next generation's reduce.
func (c *collective) copyOutLocked(dst []float64) []float64 {
	if cap(dst) < len(c.resBuf) {
		dst = make([]float64, len(c.resBuf))
	}
	dst = dst[:len(c.resBuf)]
	copy(dst, c.resBuf)
	return dst
}

// rendezvousGatherF64 gathers one float64 per rank into dst, indexed by
// comm rank. The last arriver gathers into the collective's persistent
// buffer and every rank copies it out under the lock, so with a
// pre-sized dst the call allocates nothing.
func (c *collective) rendezvousGatherF64(idx int, v float64, dst []float64, wd waitInfo) []float64 {
	c.mu.Lock()
	gen := c.gen.Load()
	c.fslots[idx] = v
	c.arrived++
	if c.arrived == c.n {
		if cap(c.resBuf) < c.n {
			c.resBuf = make([]float64, c.n)
		}
		c.resBuf = c.resBuf[:c.n]
		copy(c.resBuf, c.fslots)
		c.arrived = 0
		c.gen.Add(1)
		dst = c.copyOutLocked(dst)
		c.mu.Unlock()
		c.cond.Broadcast()
		return dst
	}
	c.waitLocked(gen, wd)
	dst = c.copyOutLocked(dst)
	c.mu.Unlock()
	return dst
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
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	res := c.shared.coll.rendezvousF64(c.Rank(), v, op, wd)
	c.world.blockExit(c.me)
	return res
}

// AllreduceInt combines one int from every rank through typed slots (no
// steady-state allocation).
func (c *Comm) AllreduceInt(v int, op ReduceOp) int {
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	res := c.shared.coll.rendezvousInt(c.Rank(), v, op, wd)
	c.world.blockExit(c.me)
	return res
}

// AllgatherFloat64 collects one value per rank, indexed by comm rank,
// into a fresh slice per rank. Hot paths should use
// AllgatherFloat64Into.
func (c *Comm) AllgatherFloat64(v float64) []float64 {
	return c.AllgatherFloat64Into(v, nil)
}

// AllgatherFloat64Into collects one value per rank into dst (grown only
// if too small); with a pre-sized dst the call allocates nothing.
func (c *Comm) AllgatherFloat64Into(v float64, dst []float64) []float64 {
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	dst = c.shared.coll.rendezvousGatherF64(c.Rank(), v, dst, wd)
	c.world.blockExit(c.me)
	return dst
}

// AllgatherInt32s collects one []int32 per rank, indexed by comm rank.
// The result slices are copies.
func (c *Comm) AllgatherInt32s(v []int32) [][]int32 {
	cp := make([]int32, len(v))
	copy(cp, v)
	wd := c.collEnter()
	c.world.blockEnter(c.me)
	res := c.shared.coll.rendezvous(c.Rank(), cp, wd, func(slots []any) any {
		out := make([][]int32, len(slots))
		for i, s := range slots {
			if s == nil {
				continue
			}
			src := s.([]int32)
			out[i] = make([]int32, len(src))
			copy(out[i], src)
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
			shared[col] = newCommShared(group)
		}
		return shared
	})
	c.world.blockExit(c.me)
	shared := res.(map[int]*commShared)[color]
	return &Comm{world: c.world, shared: shared, me: c.me}
}
