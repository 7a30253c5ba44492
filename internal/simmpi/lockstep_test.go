package simmpi

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

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

// parkCount is a ParkHooks value that counts parks: the rank a benchmark
// waits on has given up spinning once the count moves.
type parkCount struct{ parks atomic.Int64 }

func (h *parkCount) IntoBlockingCall(int)  {}
func (h *parkCount) OutOfBlockingCall(int) {}
func (h *parkCount) IntoPark(int)          { h.parks.Add(1) }
func (h *parkCount) OutOfPark(int)         {}

// parkSettle is how long BenchmarkParkWake's sender waits after seeing
// the receiver park, so the receiver is asleep on its condvar, and its
// thread on a futex, by the time the message lands.
const parkSettle = 100 * time.Microsecond

// BenchmarkParkWake measures what a park costs, the quantity spinBudget
// is sized against. Rank 1 receives with nothing to match, spins out its
// budget and parks; rank 0 waits until it is seen parked and settled,
// sends, then busy-waits without yielding — as a rank already computing
// its next SpMV does — until the receive returns, so the receiver must be
// woken onto another processor. ns/wake is the median time from the send
// to that return; the tail runs to milliseconds, so the mean would say
// little.
func BenchmarkParkWake(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("one processor: the sender's busy-wait would hold the receiver's only P")
	}
	h := &parkCount{}
	w, err := NewWorld(2, WithBlockingHooks(h))
	if err != nil {
		b.Fatal(err)
	}
	var back atomic.Int64 // receives returned
	var returned time.Time
	wakes := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	if err := w.Run(func(r *Rank) {
		for i := int64(0); i < int64(b.N); i++ {
			if r.ID() == 1 {
				recvInt(r.Comm, 0, int(i))
				returned = time.Now()
				back.Store(i + 1)
				continue
			}
			for h.parks.Load() <= i {
				runtime.Gosched()
			}
			for t := time.Now(); time.Since(t) < parkSettle; {
				runtime.Gosched()
			}
			sent := time.Now()
			sendInt(r.Comm, 1, int(i), 0)
			for back.Load() <= i {
			}
			wakes = append(wakes, returned.Sub(sent))
		}
	}); err != nil {
		b.Fatal(err)
	}
	slices.Sort(wakes)
	b.ReportMetric(float64(wakes[len(wakes)/2].Nanoseconds()), "ns/wake")
}
