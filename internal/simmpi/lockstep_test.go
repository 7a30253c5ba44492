package simmpi

import (
	"runtime"
	"testing"

	"repro/internal/la"
	"repro/internal/warmrt"
)

// benchSink keeps measured results observable.
var benchSink float64

// benchWorld runs warmup rounds of round on every rank of a fresh world,
// then times b.N more as one window opened and closed by rank 0. Every
// rank's allocations count (runtime.MemStats is process-wide), so
// allocs/op is what the whole world allocates per op. The collection and
// warmrt.Scheduler before the window keep the runtime's own park
// bookkeeping out of it: after the collection, which empties the
// runtime's central sudog list, so the refill survives.
func benchWorld(b *testing.B, ranks, warmup int, round func(r *Rank)) {
	b.Helper()
	w, err := NewWorld(ranks)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	if err := w.Run(func(r *Rank) {
		for i := 0; i < warmup; i++ {
			round(r)
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			runtime.GC()
			warmrt.Scheduler()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			round(r)
		}
		if r.ID() == 0 {
			b.StopTimer()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduceF64 times back-to-back typed scalar allreduces on
// four ranks.
func BenchmarkAllreduceF64(b *testing.B) {
	benchWorld(b, 4, 100, func(r *Rank) {
		_ = r.Comm.AllreduceFloat64(float64(r.ID()), OpMax)
	})
}

// BenchmarkLockstep measures what a synchronization costs two ranks that
// really overlap, as the distributed Krylov loop's do: each op is ~10 us
// of private work (an 8192-element dot product) followed by one scalar
// allreduce, or by one leased 512-value halo exchange. The ranks arrive
// microseconds apart, which is the case the spin-then-park wait exists
// for; BenchmarkAllreduceF64 and BenchmarkHaloExchange time back-to-back
// calls and cannot see a park.
func BenchmarkLockstep(b *testing.B) {
	const nWork, nHalo, warmup = 8192, 512, 200
	for _, halo := range []bool{false, true} {
		name := "allreduce"
		if halo {
			name = "halo"
		}
		b.Run(name, func(b *testing.B) {
			xs := [2][]float64{make([]float64, nWork), make([]float64, nWork)}
			la.Fill(xs[0], 1e-3)
			la.Fill(xs[1], 1e-3)
			var accs [2]float64
			benchWorld(b, 2, warmup, func(r *Rank) {
				acc := la.Dot(xs[r.ID()], xs[r.ID()])
				if !halo {
					accs[r.ID()] = r.Comm.AllreduceFloat64(acc, OpSum)
					return
				}
				peer := 1 - r.ID()
				buf := r.Comm.LeaseFloat64s(nHalo)
				buf.Data[0] = acc
				r.Comm.SendFloat64Buf(peer, 1, buf)
				rb := r.Comm.RecvFloat64Buf(peer, 1)
				accs[r.ID()] = acc + rb.Data[0]
				rb.Release()
			})
			benchSink = accs[0]
		})
	}
}
