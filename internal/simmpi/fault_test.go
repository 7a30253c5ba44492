package simmpi

import (
	"errors"
	"testing"
	"time"
)

// A receive for a message nobody sends must surface as a typed stall
// within the watchdog deadline, not hang.
func TestWatchdogRecvStall(t *testing.T) {
	w, err := NewWorld(2, WithWatchdog(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = w.Run(func(r *Rank) {
		r.SetStep(3)
		if r.ID() == 1 {
			recvInt(r.Comm, 0, 42) // never sent
		}
	})
	elapsed := time.Since(start)
	var stall *ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("want ErrRankStalled, got %v", err)
	}
	if stall.Rank != 1 || stall.Tag != 42 || stall.Step != 3 {
		t.Fatalf("stall = %+v, want rank 1 tag 42 step 3", stall)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stall took %v, watchdog is 50ms", elapsed)
	}
}

// A dropped send leaves the receiver stalled; every rank (including the
// one waiting in a later collective) must unwind so Run returns.
func TestFaultDropSend(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 0, Op: FaultSend, Tag: 7, Step: -1, Action: FaultDrop},
	}}
	w, err := NewWorld(2, WithWatchdog(50*time.Millisecond), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Comm.SendFloat64s(1, 7, []float64{1})
			r.Comm.Barrier()
		} else {
			recvInt(r.Comm, 0, 7)
			r.Comm.Barrier()
		}
	})
	var stall *ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("want ErrRankStalled, got %v", err)
	}
	if stall.Rank != 1 || stall.Tag != 7 {
		t.Fatalf("stall = %+v, want rank 1 tag 7", stall)
	}
}

// A dropped recv discards the message that did arrive and then stalls —
// the canonical "dropped-recv fault fails typed, not hanging". Tags roll
// per step (as the solvers' do), so the discarded message has no
// successor and the stall surfaces at exactly the faulted step.
func TestFaultDropRecv(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 1, Op: FaultRecv, Tag: -1, Step: 2, Action: FaultDrop},
	}}
	w, err := NewWorld(2, WithWatchdog(50*time.Millisecond), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		for step := 0; step < 4; step++ {
			r.SetStep(step)
			tag := 100 + step
			if r.ID() == 0 {
				sendInt(r.Comm, 1, tag, step)
			} else {
				got := recvInt(r.Comm, 0, tag)
				if got != step {
					t.Errorf("step %d: got %d", step, got)
				}
			}
		}
	})
	var stall *ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("want ErrRankStalled, got %v", err)
	}
	if stall.Rank != 1 || stall.Tag != 102 || stall.Step != 2 {
		t.Fatalf("stall = %+v, want rank 1 tag 102 step 2", stall)
	}
}

// Delays perturb wall time only: the run completes with correct results.
func TestFaultDelayCompletes(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: -1, Op: FaultRecv, Tag: -1, Step: -1, Nth: 1, Action: FaultDelay, Delay: 5 * time.Millisecond},
	}}
	w, err := NewWorld(2, WithWatchdog(time.Second), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		sendInt(r.Comm, peer, 3, r.ID())
		got := recvInt(r.Comm, peer, 3)
		if got != peer {
			t.Errorf("rank %d: got %d, want %d", r.ID(), got, peer)
		}
	})
	if err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
}

// An injected error is returned typed, and preferred over the collateral
// stalls it causes in peers.
func TestFaultErrTyped(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 2, Op: FaultCollective, Tag: -1, Step: 1, Action: FaultErr},
	}}
	w, err := NewWorld(4, WithWatchdog(50*time.Millisecond), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		for step := 0; step < 3; step++ {
			r.SetStep(step)
			r.Comm.AllreduceFloat64(float64(r.ID()), OpSum)
		}
	})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError, got %v", err)
	}
	if fe.Rank != 2 || fe.Op != FaultCollective || fe.Step != 1 {
		t.Fatalf("fault = %+v, want rank 2 collective step 1", fe)
	}
}

// A dead rank (dropped collective) stalls the whole world; the watchdog
// unwinds every participant and Run returns a stall.
func TestFaultDropCollective(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 1, Op: FaultCollective, Tag: -1, Step: -1, Action: FaultDrop},
	}}
	w, err := NewWorld(3, WithWatchdog(50*time.Millisecond), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		r.Comm.Barrier()
	})
	var stall *ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("want ErrRankStalled, got %v", err)
	}
	if stall.Tag != CollectiveTag {
		t.Fatalf("stall = %+v, want collective tag", stall)
	}
}

// Seeded random drops are a pure function of the plan: the same seed
// produces the same failure, a different seed may not.
func TestDropRateDeterministic(t *testing.T) {
	run := func(seed int64) error {
		plan := &FaultPlan{Seed: seed, DropRate: 0.3}
		w, err := NewWorld(2, WithWatchdog(50*time.Millisecond), WithFaultPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(func(r *Rank) {
			for step := 0; step < 8; step++ {
				r.SetStep(step)
				if r.ID() == 0 {
					sendInt(r.Comm, 1, 5, step)
				} else {
					recvInt(r.Comm, 0, 5)
				}
			}
		})
	}
	first := run(11)
	for trial := 0; trial < 3; trial++ {
		again := run(11)
		if (first == nil) != (again == nil) {
			t.Fatalf("seed 11 not deterministic: %v vs %v", first, again)
		}
		if first != nil {
			var a, b *ErrRankStalled
			if !errors.As(first, &a) || !errors.As(again, &b) || *a != *b {
				t.Fatalf("seed 11 stall differs: %v vs %v", first, again)
			}
		}
	}
	if first == nil {
		t.Fatal("expected at least one drop at rate 0.3 over 8 sends")
	}
}

// The Nth selector fires a rule on exactly that occurrence.
func TestFaultNthOccurrence(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Rank: 0, Op: FaultSend, Tag: 4, Step: -1, Nth: 3, Action: FaultDrop},
	}}
	w, err := NewWorld(2, WithWatchdog(50*time.Millisecond), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, 0, 4)
	err = w.Run(func(r *Rank) {
		for i := 0; i < 4; i++ {
			if r.ID() == 0 {
				sendInt(r.Comm, 1, 4, i)
			} else {
				got = append(got, recvInt(r.Comm, 0, 4))
			}
		}
	})
	var stall *ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("want ErrRankStalled, got %v", err)
	}
	// Sends 0 and 1 delivered; send 2 (the third) dropped. On the
	// shared tag's FIFO the receiver then matches message 3 in slot 2
	// and stalls one receive later — the one-lost-message slip a real
	// eager-protocol channel exhibits.
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("received %v, want [0 1 3]", got)
	}
}

// Worlds without watchdog or plan keep working exactly as before.
func TestNoFaultPlanUnchanged(t *testing.T) {
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		sum := r.Comm.AllreduceInt(r.ID(), OpSum)
		if sum != 6 {
			t.Errorf("sum = %d", sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
