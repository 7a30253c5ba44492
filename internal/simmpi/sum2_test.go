package simmpi

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// sum2Inputs are per-rank contributions whose sum depends on the fold
// order (cancellation, a subnormal, signed zeros), so a two-slot fold
// that walked the ranks in another order would show in the bits.
func sum2Inputs(rank, round int) (float64, float64) {
	a := []float64{1e16, 1, -1e16, 3.25, 5e-324}[(rank+round)%5]
	b := []float64{math.Copysign(0, -1), 0.1, 0.2, -0.3, 1e-300}[(rank*3+round)%5]
	if round%4 == 3 {
		b = math.Copysign(0, -1) // every rank −0: the sum keeps the sign
	}
	return a, b
}

// checkSum2 compares one AllreduceSum2 against two scalar OpSum
// allreduces of the same values on c, by Float64bits.
func checkSum2(t *testing.T, c *Comm, label string, round int) {
	a, b := sum2Inputs(c.Rank(), round)
	ga, gb := c.AllreduceSum2(a, b)
	// A scalar allreduce of another op between the two uses the shared
	// slot array differently; neither may disturb the other.
	_ = c.AllreduceFloat64(float64(c.Rank()), OpMax)
	wa := c.AllreduceFloat64(a, OpSum)
	wb := c.AllreduceFloat64(b, OpSum)
	if math.Float64bits(ga) != math.Float64bits(wa) || math.Float64bits(gb) != math.Float64bits(wb) {
		t.Errorf("%s round %d, comm rank %d: AllreduceSum2 = (%x, %x), two allreduces = (%x, %x)", label, round, c.Rank(), ga, gb, wa, wb)
	}
}

// TestAllreduceSum2MatchesTwoAllreduces: on worlds of 1–4 ranks and on
// a Split communicator whose comm ranks run opposite to the world
// ranks, each component of the two-slot sum equals a scalar OpSum
// allreduce of it bit for bit.
func TestAllreduceSum2MatchesTwoAllreduces(t *testing.T) {
	for ranks := 1; ranks <= 4; ranks++ {
		w, _ := NewWorld(ranks)
		if err := w.Run(func(r *Rank) {
			for round := 0; round < 8; round++ {
				checkSum2(t, r.Comm, "world", round)
			}
			sub := r.Comm.Split(r.ID()%2, -r.ID())
			for round := 0; round < 8; round++ {
				checkSum2(t, sub, "split", round)
			}
		}); err != nil {
			t.Fatalf("%d ranks: %v", ranks, err)
		}
	}
}

// TestAllreduceSum2ZeroAlloc: a steady-state two-slot allreduce
// allocates nothing, like the scalar one.
func TestAllreduceSum2ZeroAlloc(t *testing.T) {
	allocs := measureWorldAllocs(t, 4, 10, 100, func(r *Rank, round int) {
		_, _ = r.Comm.AllreduceSum2(float64(r.ID()+round), float64(round))
	})
	if allocs > 2 {
		t.Errorf("steady-state AllreduceSum2 allocated %d objects over 100 rounds, want ~0", allocs)
	}
}

// TestAbortWakesParkedAllreduceSum2: ranks parked in a two-slot
// allreduce — on the world communicator and on a Split one — whose peer
// panics instead of arriving are unwound by the world abort, and Run
// returns the panicking rank's error.
func TestAbortWakesParkedAllreduceSum2(t *testing.T) {
	boom := errors.New("boom")
	h := newParkRecorder()
	w, _ := NewWorld(3, WithBlockingHooks(h))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			pair := r.Comm.Split(r.ID()%2, r.ID()) // {0, 2} and {1}
			switch r.ID() {
			case 0:
				deadline := time.Now().Add(10 * time.Second)
				for !(h.parkedIn(1, 2) && h.parkedIn(2, 2)) {
					if time.Now().After(deadline) {
						t.Error("peers never parked")
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				panic(boom)
			case 1:
				r.Comm.AllreduceSum2(1, 2) // rank 0 never arrives
			case 2:
				pair.AllreduceSum2(1, 2) // {0, 2}: rank 0 never arrives
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
}
