package simmpi

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestAbortUnwindsEveryWait: one rank panics while its peers sit in each
// state a rank can be in — parked in a receive, in a world collective, in
// a Split sub-communicator's collective, and computing toward its next
// SetStep. With no watchdog, every peer must unwind, Run must return the
// panicking rank's error rather than an echo, the live and parked counts
// must return to zero, and every IntoPark must be matched by an
// OutOfPark, so DLB gets its lent cores back.
func TestAbortUnwindsEveryWait(t *testing.T) {
	boom := errors.New("boom")
	h := newParkRecorder()
	w, _ := NewWorld(5, WithBlockingHooks(h))
	panicking := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			color := 1
			if r.ID() == 0 || r.ID() == 3 {
				color = 0
			}
			sub := r.Comm.Split(color, r.ID())
			switch r.ID() {
			case 0:
				deadline := time.Now().Add(10 * time.Second)
				for !(h.parkedIn(1, 2) && h.parkedIn(2, 2) && h.parkedIn(3, 2)) {
					if time.Now().After(deadline) {
						t.Error("peers never parked")
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				close(panicking)
				panic(boom)
			case 1:
				recvInt(r.Comm, 0, 9) // never sent
			case 2:
				r.Comm.Barrier() // rank 0 never arrives
			case 3:
				sub.Barrier() // {0, 3}: rank 0 never arrives
			case 4:
				<-panicking
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
					r.SetStep(1)
					time.Sleep(100 * time.Microsecond)
				}
			}
			t.Errorf("rank %d was not unwound by the abort", r.ID())
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatal("the abort hung the world")
	}
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("Run = %v, want rank 0's boom", err)
	}
	if l, p := liveRanks.Load(), parkedRanks.Load(); l != 0 || p != 0 {
		t.Errorf("after abort: liveRanks %d, parkedRanks %d; want 0, 0", l, p)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for rank, ev := range h.events {
		if in, out := bytes.Count(ev, []byte{'P'}), bytes.Count(ev, []byte{'p'}); in != out {
			t.Errorf("rank %d: %d IntoPark, %d OutOfPark (%q)", rank, in, out, ev)
		}
	}
}
