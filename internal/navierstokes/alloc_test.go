package navierstokes

import (
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/warmrt"
)

// TestSolverStepZeroAllocMultidep pins the last per-step allocator in
// the fluid loop: with the multidep assembly compiled, a steady-state
// Solver.Step — assembly, both Krylov solves, projection, SGS, halo
// exchanges — performs no heap allocation on a two-rank world.
func TestSolverStepZeroAllocMultidep(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool caches (fem scratch), so the zero-alloc pin only holds without -race")
	}
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		t.Fatal(err)
	}
	dual := m.DualByNode()
	p, err := partition.KWay(dual, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig() // multidep assembly, the paper's best
	var allocs uint64
	if err := w.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(2)
		defer pool.Close()
		s, err := NewSolver(m, rms[r.ID()], r.Comm, pool, cfg, DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 3; i++ { // warm-up: workspaces, buffers, loop states
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			// Push the next GC cycle far away: a collection inside the
			// measurement window would demote the fem-scratch sync.Pool
			// to its victim cache and show up as spurious allocations.
			runtime.GC()
		}
		r.Comm.Barrier()
		for i := 0; i < 2; i++ { // re-warm the scratch pool post-GC
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
		r.Comm.Barrier()
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			warmrt.Scheduler()
			runtime.ReadMemStats(&m0)
		}
		r.Comm.Barrier()
		const steps = 5
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The structural per-step allocators this PR removes (fresh task
	// graphs, per-call closures, buffers) would show up as hundreds of
	// objects per step. What can legitimately remain is scheduling
	// jitter from the fem-scratch sync.Pool: with two workers a Get can
	// miss its per-P cache and fall back to New. Allow that noise,
	// nothing more.
	if allocs > 16 {
		t.Errorf("steady-state multidep Step allocated %d objects over 5 steps, want ~0", allocs)
	}
}
