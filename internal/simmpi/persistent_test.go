package simmpi

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/warmrt"
)

// TestMailboxReleasesDrainedKeys is the retention regression for the
// mailbox: solvers roll their tags forward every exchange, so each
// (source, tag) key is used once — entries left in the queues map after
// draining (the pre-fix behavior) grow it without bound. Drained keys
// must leave the map and their queues recycle through the freelist.
func TestMailboxReleasesDrainedKeys(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	if err := w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		buf := []float64{1, 2, 3}
		for tag := 1; tag <= rounds; tag++ { // rolling tags, like haloSum
			r.Comm.SendFloat64s(peer, tag, buf)
			got := r.Comm.RecvFloat64Buf(peer, tag)
			n := len(got.Data)
			got.Release()
			if n != 3 {
				panic("bad payload")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for rank, mb := range w.inbox {
		mb.mu.Lock()
		live, free := len(mb.queues), len(mb.free)
		mb.mu.Unlock()
		if live != 0 {
			t.Errorf("rank %d mailbox retains %d drained keys after %d rolling-tag rounds", rank, live, rounds)
		}
		if free > 4 {
			t.Errorf("rank %d mailbox freelist grew to %d queues (want a handful, bounded by in-flight peak)", rank, free)
		}
	}
}

// TestSendFloat64sImmuneToSenderMutation pins the single-copy contract:
// the copy happens at the sender into a leased transport buffer, so
// mutating the source right after Send must not corrupt the delivered
// message (and the receiver reads the buffer directly — no second copy).
func TestSendFloat64sImmuneToSenderMutation(t *testing.T) {
	w, _ := NewWorld(2)
	if err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			data := []float64{10, 20, 30}
			r.Comm.SendFloat64s(1, 1, data)
			data[0], data[1], data[2] = -1, -1, -1 // mutate immediately after Send
			ints := []int32{7, 8}
			r.Comm.SendInt32s(1, 2, ints)
			ints[0] = -9
			r.Comm.Barrier()
		} else {
			r.Comm.Barrier() // receive only after the sender has mutated
			fb := r.Comm.RecvFloat64Buf(0, 1)
			if fb.Data[0] != 10 || fb.Data[1] != 20 || fb.Data[2] != 30 {
				panic(fmt.Sprintf("delivered floats corrupted by sender mutation: %v", fb.Data))
			}
			fb.Release()
			ib := r.Comm.RecvInt32Buf(0, 2)
			if ib.Data[0] != 7 || ib.Data[1] != 8 {
				panic(fmt.Sprintf("delivered ints corrupted by sender mutation: %v", ib.Data))
			}
			ib.Release()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// measureWorldAllocs runs body (after warmup rounds) on every rank of a
// fresh world and returns the total heap allocations the measured rounds
// performed across all rank goroutines.
func measureWorldAllocs(t *testing.T, ranks, warmup, rounds int, body func(r *Rank, round int)) uint64 {
	t.Helper()
	w, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var allocs uint64
	if err := w.Run(func(r *Rank) {
		for i := 0; i < warmup; i++ {
			body(r, i)
		}
		r.Comm.Barrier()
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			warmrt.Scheduler()
			runtime.ReadMemStats(&m0)
		}
		r.Comm.Barrier()
		for i := 0; i < rounds; i++ {
			body(r, warmup+i)
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
		}
	}); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestHaloExchangeZeroAlloc asserts the acceptance criterion at the
// simmpi layer: a steady-state symmetric halo exchange through leased
// buffers allocates nothing on any rank.
func TestHaloExchangeZeroAlloc(t *testing.T) {
	const n = 256
	local := make([][]float64, 2)
	local[0] = make([]float64, n)
	local[1] = make([]float64, n)
	allocs := measureWorldAllocs(t, 2, 20, 100, func(r *Rank, round int) {
		peer := 1 - r.ID()
		tag := 1 + round // rolling tags, like the solver
		b := r.Comm.LeaseFloat64s(n)
		for i := range b.Data {
			b.Data[i] = float64(r.ID()*n + i)
		}
		r.Comm.SendFloat64Buf(peer, tag, b)
		rb := r.Comm.RecvFloat64Buf(peer, tag)
		x := local[r.ID()]
		for i := range x {
			x[i] += rb.Data[i]
		}
		rb.Release()
	})
	if allocs > 2 {
		t.Errorf("steady-state halo exchange allocated %d objects over 100 rounds, want ~0", allocs)
	}
}

// TestOneWayShipmentZeroAlloc mirrors the coupled velocity transfer:
// rank 0 leases, fills and ships; rank 1 reads and releases. The
// world-level freelist recirculates the buffers, so even a one-way
// pattern is allocation-free in steady state.
func TestOneWayShipmentZeroAlloc(t *testing.T) {
	const n = 1 + 3*128 // clock stamp + 128 velocity triples
	sink := make([]float64, n)
	allocs := measureWorldAllocs(t, 2, 20, 100, func(r *Rank, round int) {
		if r.ID() == 0 {
			b := r.Comm.LeaseFloat64s(n)
			for i := range b.Data {
				b.Data[i] = float64(round + i)
			}
			r.Comm.SendFloat64Buf(1, 5, b)
		} else {
			rb := r.Comm.RecvFloat64Buf(0, 5)
			copy(sink, rb.Data)
			rb.Release()
		}
		// The coupled step loop synchronizes every step (trace-alignment
		// collectives), which bounds the in-flight buffer count; mirror
		// that here so the freelist demand matches the warmed peak.
		r.Comm.Barrier()
	})
	if allocs > 2 {
		t.Errorf("steady-state one-way shipment allocated %d objects over 100 rounds, want ~0", allocs)
	}
}

// TestCollectivesZeroAlloc asserts that the typed collectives — the
// per-phase clock alignment and the solver's per-dot allreduce — neither
// box their contributions nor allocate results.
func TestCollectivesZeroAlloc(t *testing.T) {
	const ranks = 4
	allocs := measureWorldAllocs(t, ranks, 10, 100, func(r *Rank, round int) {
		_ = r.Comm.AllreduceFloat64(float64(r.ID()+round), OpMax)
		_ = r.Comm.AllreduceFloat64(float64(r.ID()), OpSum)
		r.Comm.Barrier()
	})
	if allocs > 2 {
		t.Errorf("steady-state collectives allocated %d objects over 100 rounds, want ~0", allocs)
	}
}

// TestCollectiveFillsWholeCacheLines pins the padding that keeps two
// communicators' collectives off a shared cache line.
func TestCollectiveFillsWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit words")
	}
	if size := unsafe.Sizeof(collective{}); size%64 != 0 {
		t.Fatalf("collective is %d bytes, not a whole number of 64-byte lines; adjust its padding", size)
	}
}

// BenchmarkHaloExchange races per-exchange fresh buffers (the seed's
// pattern) against leased persistent buffers over a two-rank world; run
// with -benchmem to see the allocation gap.
func BenchmarkHaloExchange(b *testing.B) {
	const n = 512
	for _, mode := range []string{"fresh", "leased"} {
		b.Run(mode, func(b *testing.B) {
			w, err := NewWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			leased := mode == "leased"
			b.ReportAllocs()
			b.ResetTimer()
			if err := w.Run(func(r *Rank) {
				peer := 1 - r.ID()
				x := make([]float64, n)
				for i := 0; i < b.N; i++ {
					if leased {
						buf := r.Comm.LeaseFloat64s(n)
						copy(buf.Data, x)
						r.Comm.SendFloat64Buf(peer, 1, buf)
						rb := r.Comm.RecvFloat64Buf(peer, 1)
						for j := range x {
							x[j] += rb.Data[j]
						}
						rb.Release()
					} else {
						buf := make([]float64, n)
						copy(buf, x)
						r.Comm.SendFloat64s(peer, 1, buf)
						rb := r.Comm.RecvFloat64Buf(peer, 1)
						got := append([]float64(nil), rb.Data...)
						rb.Release()
						for j := range x {
							x[j] += got[j]
						}
					}
					x[0] = 1 // keep values bounded
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
