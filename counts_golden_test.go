package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coupling"
	"repro/internal/navierstokes"
	"repro/internal/tasking"
)

// countShapes are the four benchmark workloads (benchmark/workloads.go)
// at the benchmark's -quick sizing: 3 steps, 200 particles, seed 1, with
// coupled_dlb_breathing's DLB off.
func countShapes() []struct {
	name string
	cfg  SimulationConfig
} {
	base := func(gens int) SimulationConfig {
		cfg := DefaultSimulationConfig()
		cfg.Mesh.Generations = gens
		cfg.Run.Mode = coupling.Synchronous
		cfg.Run.FluidRanks = 2
		cfg.Run.RanksPerNode = 2
		cfg.Run.WorkersPerRank = 1
		cfg.Run.Steps = 3
		cfg.Run.NumParticles = 200
		cfg.Run.NS.Strategy = tasking.StrategyMultidep
		cfg.Run.Seed = 1
		return cfg
	}
	coupled := base(2)
	coupled.Run.Mode = coupling.Coupled
	coupled.Run.ParticleRanks = 2
	coupled.Run.RanksPerNode = 4
	// DLB off: a multidep assembly on more than one worker adds
	// conflicting scatters in scheduling order, so once DLB lends a core
	// the counts move run to run (3 544–3 556 iterations seen).
	coupled.Run.UseDLB = false
	coupled.Run.NS.Inflow = navierstokes.BreathingWaveform{Period: 0.004}
	coupled.Run.InjectEvery = 1

	job := DefaultSimulationConfig()
	job.Run.FluidRanks = 2
	job.Run.Steps = 3
	job.Run.NumParticles = 200
	job.Run.InjectEvery = 1
	job.Run.Seed = 1
	job.Run.NS.Inflow = navierstokes.BreathingWaveform{Period: 2 * 3 * job.Run.NS.Props.Dt}

	return []struct {
		name string
		cfg  SimulationConfig
	}{
		{"fluid_sync", base(3)},
		{"particle_bolus", base(2)},
		{"coupled_dlb_breathing", coupled},
		{"service_jobs", job},
	}
}

// TestSolveCountsGolden pins the exact Krylov solve counts — solves,
// iterations, pressure solves that stopped unconverged at the cap, and
// breakdowns — and the simmpi exchange counts — allreduce calls,
// point-to-point messages and the float64s they carried — of the four
// benchmark workload shapes. Exact counts need no timing pairs: a kernel
// or wait change that keeps every iterate's bits and every exchange
// leaves testdata/golden/counts.txt byte-identical; -update rewrites it.
func TestSolveCountsGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# workload solves iterations pressure_capped breakdowns allreduces messages float64s (quick sizing: 3 steps, 200 particles, seed 1)")
	for _, sh := range countShapes() {
		res, err := RunSimulation(sh.cfg)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		c, x := res.Result.Solves, res.Result.Exchanges
		fmt.Fprintf(&buf, "%s %d %d %d %d %d %d %d\n", sh.name, c.Solves, c.Iterations, c.PressureCapped, c.Breakdowns, x.Allreduces, x.Messages, x.Float64s)
	}
	path := filepath.Join("testdata", "golden", "counts.txt")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("solve counts drifted from %s:\ngot:\n%swant:\n%s", path, buf.Bytes(), want)
	}
}
