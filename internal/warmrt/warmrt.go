// Package warmrt is measurement hygiene for everything in the repo that
// diffs the process-wide runtime.MemStats.Mallocs around a steady-state
// window: the zero-allocation pins in the test suites and the allocs/op
// of the multi-rank benchmarks.
package warmrt

import (
	"runtime"
	"sync"
)

// Scheduler makes the Go scheduler's lazily grown bookkeeping exist
// before a measurement window, so the window counts this repo's
// allocations and not the runtime's warm-up. Two structures matter once
// simmpi ranks really run on several Ps (spin-then-park waits) instead of
// ping-ponging on one:
//
//   - sudogs. Every blocking primitive (sync.Cond, a contended Mutex, a
//     channel) takes a wait-queue entry from the cache of the P the
//     goroutine parks on and returns it to the cache of the P it resumes
//     on; an empty cache is refilled with new(sudog). A rank that parks on
//     one P and resumes on the other carries an entry across, one cache
//     runs dry, and the refill shows up as a few mallocs. Parking a crowd
//     on one condvar and releasing it fills every P's cache and the
//     runtime's central list (a later GC empties only the latter).
//   - OS threads. Waking an idle P when no thread is parked to take it
//     starts a new one (an m, its g0, two profiling stacks: 5 objects).
//     Holding a few goroutines locked to threads of their own forces those
//     threads into existence; released, they stay parked as spares.
func Scheduler() {
	const (
		crowd  = 512 // > 2 x 128, the per-P sudog cache capacity, on the 2-4 Ps tests run at
		spares = 4
	)
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		release bool
		parked  sync.WaitGroup
		done    sync.WaitGroup
	)
	parked.Add(crowd)
	done.Add(crowd)
	for i := 0; i < crowd; i++ {
		locked := i < spares
		go func() {
			defer done.Done()
			if locked {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			mu.Lock()
			parked.Done()
			for !release {
				cond.Wait()
			}
			mu.Unlock()
		}()
	}
	parked.Wait()
	mu.Lock() // every goroutine is inside Wait (or about to re-check release) once we hold mu
	release = true
	mu.Unlock()
	cond.Broadcast()
	done.Wait()
}
