package simmpi

import (
	"bytes"
	"errors"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the wait policy (spin-then-park) rather than any
// result: nothing a rank computes may depend on which path a wait took.
// They read GOMAXPROCS instead of setting it, so `go test -cpu 1,2,4`
// drives them down the park-only path (1) and the spin path (2, 4).

// oversubscribed is a world size no GOMAXPROCS the suite runs at can
// give a processor per rank.
func oversubscribed() int { return 4 * runtime.GOMAXPROCS(0) }

// userBarrier is a barrier outside simmpi: the caller busy-yields until
// n*gen arrivals are counted, so a rank waiting in it stays runnable and
// never counts as parked.
func userBarrier(arrived *atomic.Int64, n, gen int) {
	arrived.Add(1)
	for arrived.Load() < int64(n*gen) {
		runtime.Gosched()
	}
}

// TestSpinPolicyFollowsRunnableRanks pins the rule itself: runnable
// ranks — live minus parked — gate the spin, never on one processor. An
// oversubscribed world whose ranks are all but two parked in a barrier
// may spin; a second world's runnable ranks stop a fitting world from
// spinning for as long as they are inside Run.
func TestSpinPolicyFollowsRunnableRanks(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	fits := procs > 1

	n := oversubscribed()
	w, _ := NewWorld(n)
	if err := w.Run(func(r *Rank) {
		if r.ID() < 2 {
			for parkedRanks.Load() < int64(n-2) {
				time.Sleep(50 * time.Microsecond)
			}
			if got := r.world.spinOK(); got != fits {
				t.Errorf("GOMAXPROCS=%d, %d live / %d parked ranks: spinOK=%v, want %v", procs, liveRanks.Load(), parkedRanks.Load(), got, fits)
			}
			peer := 1 - r.ID()
			r.Comm.SendFloat64s(peer, 1, []float64{float64(r.ID())})
			if got := recvInt(r.Comm, peer, 1); got != peer {
				t.Errorf("rank %d: got %v from the other runnable rank", r.ID(), got)
			}
		}
		r.Comm.Barrier()
	}); err != nil {
		t.Fatal(err)
	}

	a, _ := NewWorld(2)
	bSize := max(procs-1, 1) // a+b together exceed procs
	b, _ := NewWorld(bSize)
	bOut := make(chan struct{})
	bDone := make(chan error, 1)
	var checked atomic.Int64
	if err := a.Run(func(r *Rank) {
		if r.ID() == 0 {
			go func() {
				bDone <- b.Run(func(*Rank) { <-bOut }) // inside Run, never parked
			}()
		}
		for liveRanks.Load() < int64(2+bSize) {
			time.Sleep(50 * time.Microsecond)
		}
		if r.world.spinOK() {
			t.Errorf("GOMAXPROCS=%d, %d runnable ranks over two worlds: first world spins", procs, liveRanks.Load()-parkedRanks.Load())
		}
		userBarrier(&checked, 2, 1)                             // neither rank parks before both checked
		if got := r.Comm.AllreduceFloat64(1, OpSum); got != 2 { // the park path still works mid-run
			t.Errorf("allreduce while oversubscribed = %g, want 2", got)
		}
		if r.ID() == 0 {
			close(bOut)
			if err := <-bDone; err != nil {
				t.Error(err)
			}
		}
		r.Comm.Barrier() // b has left Run
		if got := r.world.spinOK(); got != fits {
			t.Errorf("after the second world left: spinOK=%v, want %v", got, fits)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOversubscribedWorldNeverSpins runs the point-to-point and
// collective paths on 4 x GOMAXPROCS ranks: the world completes with the
// right answers, and whenever all of its ranks are runnable — every one
// between two user-level barriers, none parked — no wait may spin.
// Violations are recorded, never returned on: a rank that left the ring
// would strand its neighbours in their receives.
func TestOversubscribedWorldNeverSpins(t *testing.T) {
	n := oversubscribed()
	w, _ := NewWorld(n)
	var arrived, violations atomic.Int64
	if err := w.Run(func(r *Rank) {
		next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
		for round := 0; round < 50; round++ {
			userBarrier(&arrived, n, 2*round+1)
			if r.world.spinOK() {
				violations.Add(1)
			}
			userBarrier(&arrived, n, 2*round+2)
			r.Comm.SendFloat64s(next, round, []float64{float64(r.ID())})
			if got := recvInt(r.Comm, prev, round); got != prev {
				t.Errorf("rank %d round %d: got %v from %d", r.ID(), round, got, prev)
			}
			if got := r.Comm.AllreduceFloat64(float64(r.ID()), OpSum); got != float64(n*(n-1)/2) {
				t.Errorf("rank %d round %d: allreduce = %g", r.ID(), round, got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v > 0 {
		t.Errorf("%d checks with all %d ranks runnable on %d procs allowed a spin", v, n, runtime.GOMAXPROCS(0))
	}
}

// TestLiveRanksReturnToZero pins the bookkeeping the policy rests on:
// liveRanks covers exactly the ranks inside Run and parkedRanks exactly
// the parked ones, and neither leaks a share on a normal exit, a
// watchdog stall (receive or collective) or a rank panic.
func TestLiveRanksReturnToZero(t *testing.T) {
	zero := func(when string) {
		t.Helper()
		if live, parked := liveRanks.Load(), parkedRanks.Load(); live != 0 || parked != 0 {
			t.Fatalf("liveRanks = %d, parkedRanks = %d %s", live, parked, when)
		}
	}
	zero("before any world runs")
	w, _ := NewWorld(3)
	if err := w.Run(func(r *Rank) {
		if got := liveRanks.Load(); got != 3 {
			t.Errorf("liveRanks = %d inside a 3-rank Run", got)
		}
		if r.ID() == 0 { // arrive only once both peers are counted parked
			for parkedRanks.Load() < 2 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		r.Comm.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	zero("after Run returned")

	for _, op := range []string{"recv", "collective"} {
		w, _ = NewWorld(2, WithWatchdog(20*time.Millisecond))
		err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				return // never sends, never arrives
			}
			if op == "recv" {
				recvInt(r.Comm, 0, 9)
			} else {
				r.Comm.Barrier()
			}
		})
		var stall *ErrRankStalled
		if !errors.As(err, &stall) {
			t.Fatalf("%s: want ErrRankStalled, got %v", op, err)
		}
		zero("after a " + op + " stalled")
	}

	w, _ = NewWorld(3, WithWatchdog(20*time.Millisecond))
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
		r.Comm.Barrier() // stalls: rank 1 never arrives
	})
	if err == nil {
		t.Fatal("want an error from the panicking rank")
	}
	zero("after a rank panicked")
}

// parkRecorder logs each rank's hook events in order: E and X for the
// PMPI bracket, P and p for a park inside it.
type parkRecorder struct {
	mu     sync.Mutex
	events map[int][]byte
}

func newParkRecorder() *parkRecorder { return &parkRecorder{events: map[int][]byte{}} }

func (h *parkRecorder) log(rank int, ev byte) {
	h.mu.Lock()
	h.events[rank] = append(h.events[rank], ev)
	h.mu.Unlock()
}

func (h *parkRecorder) IntoBlockingCall(rank int)  { h.log(rank, 'E') }
func (h *parkRecorder) OutOfBlockingCall(rank int) { h.log(rank, 'X') }
func (h *parkRecorder) IntoPark(rank int)          { h.log(rank, 'P') }
func (h *parkRecorder) OutOfPark(rank int)         { h.log(rank, 'p') }

// parkedIn reports whether rank is parked inside its calls-th blocking
// call.
func (h *parkRecorder) parkedIn(rank, calls int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev := h.events[rank]
	return bytes.Count(ev, []byte{'E'}) == calls && ev[len(ev)-1] == 'P'
}

// TestSpinSatisfiedWaitNeverParks: a receive whose message lands while it
// spins, and a collective wait whose generation advances while it spins,
// return without touching the park bookkeeping or its hooks.
func TestSpinSatisfiedWaitNeverParks(t *testing.T) {
	h := newParkRecorder()
	wd := waitInfo{spin: true, park: h}
	mb := newMailbox()
	key := msgKey{src: 1, tag: 3}
	mb.put(key, message{payload: 7})
	if m, ok := mb.take(key, wd); !ok || m.payload != 7 {
		t.Fatalf("take = %v, %v; want the queued message", m, ok)
	}
	c := newCollective(2)
	c.mu.Lock()
	gen := c.gen.Load()
	c.gen.Add(1) // the last arriver completed the rendezvous
	c.waitLocked(gen, wd)
	c.mu.Unlock()
	if len(h.events) != 0 || parkedRanks.Load() != 0 {
		t.Fatalf("spin-satisfied waits parked: events %q, parkedRanks %d", h.events[0], parkedRanks.Load())
	}
}

// TestHooksOncePerBlockingCall pins the PMPI bracket and the park
// surface on both wait paths: one Into and one Out per blocking call per
// rank, whether the wait was satisfied while spinning (lockstep rounds)
// or had to park, whatever the world's size, with at most one
// IntoPark/OutOfPark pair nested inside each bracket — and one wherever
// the wait was forced past any spin budget: late barriers and a late
// receive, whose peers arrive only once the waiter is seen parked. A
// receive that finds its message waiting is no blocking call at all.
func TestHooksOncePerBlockingCall(t *testing.T) {
	wellFormed := regexp.MustCompile(`^(E(Pp)?X)*$`)
	for _, n := range []int{2, oversubscribed()} {
		const lockstep, late = 200, 5
		h := newParkRecorder()
		w, _ := NewWorld(n, WithBlockingHooks(h))
		if err := w.Run(func(r *Rank) {
			for i := 0; i < lockstep; i++ {
				r.Comm.AllreduceFloat64(1, OpSum)
			}
			for i := 1; i <= late; i++ {
				if r.ID() == 0 {
					for k := 1; k < n; k++ {
						for !h.parkedIn(k, lockstep+i) {
							time.Sleep(50 * time.Microsecond)
						}
					}
				}
				r.Comm.Barrier()
			}
			if r.ID() == 0 {
				sendInt(r.Comm, 1, 7, 0)
				r.Comm.Barrier()
				for !h.parkedIn(1, lockstep+late+2) {
					time.Sleep(50 * time.Microsecond)
				}
				sendInt(r.Comm, 1, 8, 0)
			} else {
				r.Comm.Barrier()
				if r.ID() == 1 {
					recvInt(r.Comm, 0, 7) // already there: no hook
					recvInt(r.Comm, 0, 8) // late: one bracket, parked
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < n; rank++ {
			ev := h.events[rank]
			if !wellFormed.Match(ev) {
				t.Errorf("%d ranks: rank %d hook sequence %q is not (E(Pp)?X)*", n, rank, ev)
				continue
			}
			calls, parks := bytes.Count(ev, []byte{'E'}), bytes.Count(ev, []byte{'P'})
			want, forced := lockstep+late+1, late
			switch rank {
			case 0:
				forced = 0
			case 1:
				want, forced = want+1, forced+1 // the late receive
			}
			if calls != want || parks < forced {
				t.Errorf("%d ranks: rank %d made %d blocking calls with %d parks, want %d calls and >= %d parks", n, rank, calls, parks, want, forced)
			}
		}
		if got := parkedRanks.Load(); got != 0 {
			t.Errorf("%d ranks: parkedRanks = %d after Run", n, got)
		}
	}
}

// TestWatchdogBoundsSpinAndPark: a peer that never arrives surfaces as
// ErrRankStalled within the watchdog plus scheduling slack, for a
// receive and for a collective, on the path that spins first (2 ranks,
// when GOMAXPROCS allows) and on the one that parks at once.
func TestWatchdogBoundsSpinAndPark(t *testing.T) {
	const watchdog = 40 * time.Millisecond
	for _, n := range []int{2, oversubscribed()} {
		for _, op := range []string{"recv", "collective"} {
			w, _ := NewWorld(n, WithWatchdog(watchdog))
			start := time.Now()
			err := w.Run(func(r *Rank) {
				if r.ID() == 0 {
					return // never sends, never arrives
				}
				if op == "recv" {
					recvInt(r.Comm, 0, 9)
				} else {
					r.Comm.Barrier()
				}
			})
			elapsed := time.Since(start)
			var stall *ErrRankStalled
			if !errors.As(err, &stall) {
				t.Fatalf("%d ranks, %s: want ErrRankStalled, got %v", n, op, err)
			}
			if elapsed < watchdog || elapsed > watchdog+50*time.Millisecond {
				t.Errorf("%d ranks, %s: stalled after %v, want within [%v, %v]", n, op, elapsed, watchdog, watchdog+50*time.Millisecond)
			}
		}
	}
}

// TestWatchdogTimerOnlyWhenParking pins where the watchdog's timer is
// created: lockstep waits that the spin satisfies must not allocate one
// each (they did when the timer was armed on entry).
func TestWatchdogTimerOnlyWhenParking(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one processor: every wait parks, and a parked wait owns a timer")
	}
	const rounds = 2000
	w, _ := NewWorld(2, WithWatchdog(time.Second))
	var allocs uint64
	if err := w.Run(func(r *Rank) {
		for i := 0; i < 100; i++ {
			r.Comm.AllreduceFloat64(1, OpSum)
		}
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < rounds; i++ {
			r.Comm.AllreduceFloat64(1, OpSum)
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Armed on entry, every second call (the first arriver's) made a
	// timer: >= rounds allocations. Parks still happen now and then.
	if allocs > rounds/4 {
		t.Errorf("%d lockstep allreduces under a watchdog allocated %d objects; the timer is being armed before the spin", rounds, allocs)
	}
}

// spinAll is a spin limit no test's runnable ranks reach: only the
// budget can end the spin.
const spinAll = 1 << 20

// TestSpinReturnsOnceConditionHolds: a spin whose condition turns true
// after k polls, before, at and well past a policy check, returns true
// after exactly k polls and never touches the park bookkeeping or its
// hooks; its callers return on true without parking
// (TestSpinSatisfiedWaitNeverParks).
func TestSpinReturnsOnceConditionHolds(t *testing.T) {
	h := newParkRecorder()
	wd := waitInfo{spin: true, spinMax: spinAll, park: h}
	for _, k := range []int{1, 2, spinCheckRounds, spinCheckRounds + 1, 5 * spinCheckRounds} {
		polls := 0
		if !wd.spinUntil(func() bool { polls++; return polls == k }) || polls != k {
			t.Errorf("condition true at poll %d: spin made %d polls", k, polls)
		}
	}
	if len(h.events) != 0 || parkedRanks.Load() != 0 {
		t.Fatalf("satisfied spins parked: events %q, parkedRanks %d", h.events[0], parkedRanks.Load())
	}
}

// stampedPark records when its rank first gave up spinning.
type stampedPark struct {
	parkRecorder
	at time.Time
}

func (h *stampedPark) IntoPark(rank int) {
	if h.at.IsZero() {
		h.at = time.Now()
	}
	h.parkRecorder.IntoPark(rank)
}

// TestSpinNeverSatisfiedParksAfterBudget: a condition that never turns
// true ends the spin no sooner than spinBudget, and a receive that waits
// for a message that never comes parks (and stalls at its watchdog) only
// after spinning out the budget.
func TestSpinNeverSatisfiedParksAfterBudget(t *testing.T) {
	start := time.Now()
	if (waitInfo{spin: true, spinMax: spinAll}).spinUntil(func() bool { return false }) {
		t.Fatal("spin reported a condition that never held")
	}
	if d := time.Since(start); d < spinBudget {
		t.Errorf("spin gave up after %v, before its %v budget", d, spinBudget)
	}

	h := &stampedPark{parkRecorder: *newParkRecorder()}
	wd := waitInfo{spin: true, spinMax: spinAll, watchdog: 10 * time.Millisecond, park: h}
	start = time.Now()
	if _, ok := newMailbox().take(msgKey{src: 1, tag: 3}, wd); ok {
		t.Fatal("take returned a message nobody sent")
	}
	if got := string(h.events[0]); got != "Pp" {
		t.Fatalf("park hooks %q, want one IntoPark/OutOfPark pair", got)
	}
	if d := h.at.Sub(start); d < spinBudget {
		t.Errorf("receive parked after %v, before its %v spin budget", d, spinBudget)
	}
}

// TestSpinStopsWhenRunnableRanksOutgrowProcs: a spin whose runnable-rank
// check turns false while it spins — another world's ranks started —
// gives up at its next check, long before the budget could end it.
func TestSpinStopsWhenRunnableRanksOutgrowProcs(t *testing.T) {
	const spinMax, raiseAt = 2, spinCheckRounds + 1
	wd := waitInfo{spin: true, spinMax: spinMax}
	polls := 0
	defer func() { liveRanks.Add(-(spinMax + 1)) }()
	if wd.spinUntil(func() bool {
		if polls++; polls == raiseAt {
			liveRanks.Add(spinMax + 1) // runnable ranks now outnumber spinMax
		}
		return false
	}) {
		t.Fatal("spin reported a condition that never held")
	}
	if want := 2 * spinCheckRounds; polls != want {
		t.Errorf("spin gave up after %d polls, want %d: the check after the raise", polls, want)
	}
}
