package particles

import (
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/warmrt"
)

// stillAir is a quiescent carrier with no gravity: particles injected
// into it stay put, so a steady-state Step keeps every particle active
// (no lost-list growth) — the configuration the zero-allocation
// assertion needs.
func stillAir() FluidProps {
	f := AirAt20C()
	f.Gravity = mesh.Vec3{}
	return f
}

var stillField = func(int32) mesh.Vec3 { return mesh.Vec3{} }

// TestTrackerStepZeroAlloc asserts the acceptance criterion for the
// particle phase: after warmup, Tracker.Step performs zero heap
// allocations in steady state, serially and sharded over a pool at 1
// and 4 workers (the fates scratch, the sweep body and the pool's loop
// states are all reused, and the kernel's lane scratch stays on the
// sweeping goroutine's stack) — for a population of whole 8-lane blocks
// and for one whose last shard ends in a partial block.
func TestTrackerStepZeroAlloc(t *testing.T) {
	m := airway(t, 2)
	for _, workers := range []int{0, 1, 4} {
		for _, tail := range []int{0, 5} {
			tr := NewTracker(m, nil, aerosol(), stillAir())
			var pool *tasking.Pool
			if workers > 0 {
				pool = tasking.NewPool(workers)
				tr.SetPool(pool)
			}
			// Enough particles that the pooled runs actually shard
			// (stepShardSize = 256).
			injected := tr.InjectAtInlet(1200, 3, mesh.Vec3{})
			population := injected - injected%newmarkLanes - newmarkLanes + tail
			if population <= stepShardSize {
				t.Fatalf("injected %d particles, need > %d to exercise sharding", injected, stepShardSize)
			}
			tr.Active.Truncate(population)
			const dt = 1e-4
			for i := 0; i < 10; i++ { // warmup: fates scratch, loop states
				tr.Step(dt, stillField)
			}
			if a, _, _ := tr.Counts(); a != population || a%newmarkLanes != tail {
				t.Fatalf("workers=%d: population not steady (%d of %d active, want %d past a whole block)",
					workers, a, population, tail)
			}
			avg := testing.AllocsPerRun(30, func() {
				tr.Step(dt, stillField)
			})
			if avg != 0 {
				t.Errorf("workers=%d population=%d: steady-state Tracker.Step allocates %.2f objects per step, want 0",
					workers, population, avg)
			}
			if pool != nil {
				pool.Close()
			}
		}
	}
}

// TestMigrateZeroAllocForcedMigration pins the migrate-scratch reuse
// under a forced heavy-migration workload: every round rank 0 loses the
// same batch of particles, rank 1 claims and adopts them all, and rank 1
// then truncates its population so the next round repeats identically.
// After warm-up (scratch slices and transport buffers at their
// high-water capacity) the whole three-phase protocol must allocate
// nothing on either rank.
func TestMigrateZeroAllocForcedMigration(t *testing.T) {
	m := airway(t, 2)
	w, err := simmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 200
	var allocs uint64
	if err := w.Run(func(r *simmpi.Rank) {
		// Both trackers cover the whole mesh, so rank 1 can claim every
		// candidate rank 0 loses.
		tr := NewTracker(m, nil, aerosol(), stillAir())
		peers := []int{1 - r.ID()}
		var snapshot []Particle
		if r.ID() == 0 {
			if n := tr.InjectAtInlet(batch+50, 3, mesh.Vec3{}); n < batch {
				panic("not enough particles injected to force migration")
			}
			for i := 0; i < batch; i++ {
				snapshot = append(snapshot, tr.Active.At(i))
			}
		}
		active0 := tr.Active.Len()
		round := func() {
			if r.ID() == 0 {
				// Force a heavy-migration step: the batch leaves rank 0.
				tr.lost = append(tr.lost[:0], snapshot...)
			}
			stats := Migrate(r.Comm, tr, peers, 100)
			if r.ID() == 0 && stats.SentOut != batch {
				panic("forced migration batch not transferred")
			}
			if r.ID() == 1 {
				if stats.Received != batch {
					panic("peer did not adopt the forced batch")
				}
				// Reset the adopted population so capacity stays at the
				// high-water mark instead of growing without bound.
				tr.Active.Truncate(active0)
			}
		}
		for i := 0; i < 15; i++ { // warm-up: scratch + store + buffers
			round()
		}
		r.Comm.Barrier()
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			warmrt.Scheduler()
			runtime.ReadMemStats(&m0)
		}
		r.Comm.Barrier()
		const rounds = 50
		for i := 0; i < rounds; i++ {
			round()
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
		}
	}); err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Errorf("forced-migration steady state allocated %d objects over 50 rounds, want ~0", allocs)
	}
}
