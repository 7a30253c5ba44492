package coupling

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/mesh"
	"repro/internal/tasking"
)

// allocMesh builds the small airway the steady-state tests run on.
func allocMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// measureRunAllocs executes cfg on m and measures, through the OnStep
// hook (which runs inside the rank-0 goroutine), the heap allocations
// between the end of step warm and the end of the last step.
func measureRunAllocs(t *testing.T, m *mesh.Mesh, cfg RunConfig, warm int) (uint64, int) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool caches (fem scratch), so the zero-alloc pin only holds without -race")
	}
	var m0, m1 runtime.MemStats
	last := cfg.Steps - 1
	cfg.OnStep = func(step int) {
		if step == warm-2 {
			// Push the next GC cycle past the measurement window: a
			// collection inside it would demote the fem-scratch
			// sync.Pool to its victim cache and show up as spurious
			// allocations. The two steps before the m0 read re-warm
			// the pool.
			runtime.GC()
		}
		if step == warm {
			runtime.ReadMemStats(&m0)
		}
		if step == last {
			runtime.ReadMemStats(&m1)
		}
	}
	if _, err := RunContext(context.Background(), m, cfg); err != nil {
		t.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs, last - warm
}

// TestSynchronousStepZeroAllocMultidep pins the acceptance criterion
// end to end: a steady-state synchronous step — multidep assembly,
// Krylov solves, projection, SGS, particle transport, migration
// finalization, virtual-time accounting — allocates nothing once warm.
func TestSynchronousStepZeroAllocMultidep(t *testing.T) {
	m := allocMesh(t)
	cfg := DefaultRunConfig()
	cfg.FluidRanks = 1
	cfg.Steps = 45
	cfg.NumParticles = 300
	if cfg.NS.Strategy != tasking.StrategyMultidep {
		t.Fatal("default config is expected to use the multidep strategy")
	}
	allocs, steps := measureRunAllocs(t, m, cfg, 15)
	// The structural per-step allocators (fresh task graphs, per-call
	// closures, buffers) would show as hundreds of objects per step;
	// the only legitimate noise is a rare fem-scratch sync.Pool miss.
	if allocs > 16 {
		t.Errorf("steady-state synchronous step allocated %d objects over %d steps, want ~0", allocs, steps)
	}
}

// TestCoupledStepZeroAllocMultidep is the coupled-mode variant: the
// fluid rank ships velocities through leased buffers while the particle
// rank transports and finalizes; both codes' steady-state steps must be
// allocation-free. The two ranks run concurrently and memstats are
// process-wide, so the bound allows the small cross-rank read skew.
func TestCoupledStepZeroAllocMultidep(t *testing.T) {
	m := allocMesh(t)
	cfg := DefaultRunConfig()
	cfg.Mode = Coupled
	cfg.FluidRanks = 1
	cfg.ParticleRanks = 1
	cfg.Steps = 45
	cfg.NumParticles = 300
	allocs, steps := measureRunAllocs(t, m, cfg, 15)
	// Same bound rationale as the synchronous test, plus the small
	// cross-rank memstats read skew of the concurrent particle rank.
	if allocs > 16 {
		t.Errorf("steady-state coupled step allocated %d objects over %d steps, want ~0", allocs, steps)
	}
}
