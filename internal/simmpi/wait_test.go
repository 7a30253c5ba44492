package simmpi

import (
	"errors"
	"runtime"
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

// TestSpinPolicyFollowsLiveRanks pins the rule itself: a world whose
// ranks fit the processors spins (never on one processor), and stops
// spinning for as long as a second world makes the process
// oversubscribed.
func TestSpinPolicyFollowsLiveRanks(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	fits := procs > 1
	a, _ := NewWorld(2)
	b, _ := NewWorld(max(procs-1, 1)) // a+b together exceed procs
	bIn, bOut := make(chan struct{}), make(chan struct{})
	bDone := make(chan error, 1)
	if err := a.Run(func(r *Rank) {
		if got := r.world.spinOK(); got != fits {
			t.Errorf("GOMAXPROCS=%d, 2 live ranks: spinOK=%v, want %v", procs, got, fits)
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			go func() {
				bDone <- b.Run(func(rb *Rank) {
					if rb.world.spinOK() {
						t.Errorf("GOMAXPROCS=%d, %d live ranks: second world spins", procs, liveRanks.Load())
					}
					rb.Comm.Barrier()
					if rb.ID() == 0 {
						close(bIn)
						<-bOut
					}
					rb.Comm.Barrier()
				})
			}()
			<-bIn
		}
		r.Comm.Barrier() // b is inside Run from here until bOut closes
		if r.world.spinOK() {
			t.Errorf("GOMAXPROCS=%d, %d live ranks: first world still spins", procs, liveRanks.Load())
		}
		if got := r.Comm.AllreduceInt(1, OpSum); got != 2 { // the park path still works mid-run
			t.Errorf("allreduce while oversubscribed = %d, want 2", got)
		}
		r.Comm.Barrier()
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
// collective paths on 4 x GOMAXPROCS ranks: the world completes, with
// the right answers, and no wait was ever allowed to spin.
func TestOversubscribedWorldNeverSpins(t *testing.T) {
	n := oversubscribed()
	w, _ := NewWorld(n)
	if err := w.Run(func(r *Rank) {
		next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
		for round := 0; round < 50; round++ {
			if r.world.spinOK() {
				t.Errorf("rank %d round %d: spinOK with %d ranks on %d procs", r.ID(), round, n, runtime.GOMAXPROCS(0))
				return
			}
			r.Comm.SendFloat64s(next, round, []float64{float64(r.ID())})
			if got := r.Comm.RecvFloat64s(prev, round); got[0] != float64(prev) {
				t.Errorf("rank %d round %d: got %v from %d", r.ID(), round, got, prev)
			}
			if got := r.Comm.AllreduceInt(r.ID(), OpSum); got != n*(n-1)/2 {
				t.Errorf("rank %d round %d: allreduce = %d", r.ID(), round, got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveRanksReturnToZero pins the bookkeeping the policy rests on:
// the count covers exactly the ranks inside Run, and a rank that panics
// does not leak its share.
func TestLiveRanksReturnToZero(t *testing.T) {
	if got := liveRanks.Load(); got != 0 {
		t.Fatalf("liveRanks = %d before any world runs", got)
	}
	w, _ := NewWorld(3)
	if err := w.Run(func(r *Rank) {
		if got := liveRanks.Load(); got != 3 {
			t.Errorf("liveRanks = %d inside a 3-rank Run", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := liveRanks.Load(); got != 0 {
		t.Fatalf("liveRanks = %d after Run returned", got)
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
	if got := liveRanks.Load(); got != 0 {
		t.Fatalf("liveRanks = %d after a rank panicked", got)
	}
}

// TestHooksOncePerBlockingCall pins the PMPI bracket on both wait paths:
// one Into and one Out per collective per rank, whether the wait was
// satisfied while spinning (lockstep rounds) or had to park (rank 0
// sleeps past any spin budget first), and whatever the world's size.
func TestHooksOncePerBlockingCall(t *testing.T) {
	for _, n := range []int{2, oversubscribed()} {
		const lockstep, late = 200, 5
		h := &hookRecorder{enters: map[int]int{}, exits: map[int]int{}}
		w, _ := NewWorld(n, WithBlockingHooks(h))
		if err := w.Run(func(r *Rank) {
			for i := 0; i < lockstep; i++ {
				r.Comm.AllreduceFloat64(1, OpSum)
			}
			for i := 0; i < late; i++ {
				if r.ID() == 0 {
					time.Sleep(time.Millisecond)
				}
				r.Comm.Barrier()
			}
			// A receive that finds its message waiting is not a blocking
			// call; one that has to wait is exactly one. Rank 0 sends the
			// late message only once rank 1 is inside that call.
			if r.ID() == 0 {
				r.Comm.Send(1, 7, nil)
				r.Comm.Barrier()
				for entered := 0; entered < lockstep+late+2; {
					time.Sleep(100 * time.Microsecond)
					h.mu.Lock()
					entered = h.enters[1]
					h.mu.Unlock()
				}
				r.Comm.Send(1, 8, nil)
			} else {
				r.Comm.Barrier()
				if r.ID() == 1 {
					r.Comm.Recv(0, 7) // already there: no hook
					r.Comm.Recv(0, 8) // late: one bracket
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < n; rank++ {
			want := lockstep + late + 1
			if rank == 1 {
				want++ // the late receive
			}
			if h.enters[rank] != want || h.exits[rank] != want {
				t.Errorf("%d ranks: rank %d enters=%d exits=%d, want %d each", n, rank, h.enters[rank], h.exits[rank], want)
			}
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
					r.Comm.Recv(0, 9)
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
