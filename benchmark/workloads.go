package main

import (
	"repro"
	"repro/internal/coupling"
	"repro/internal/navierstokes"
	"repro/internal/tasking"
)

// sizing is the per-simulation work of a workload. The full sizing is
// pinned here and in README.md; -quick shrinks it for the tests.
type sizing struct {
	steps     int // time steps per simulation (never above 60: the flow solver diverges on longer runs)
	particles int // 0 keeps the workload's own count
	jobSteps  int // steps of one service job
	minJobs   int // submissions the service loop makes even when its time is up
	abSteps   int // steps of the traced run's A/B legs
	abEvery   int // checkpoint period of the A/B legs
	triadCap  int // upper bound on one STREAM-triad array, bytes
	mpiCalls  int // exchanges timed per simmpi kernel
}

// The sheet asks for triad arrays of at least 4x the last-level cache;
// hosts that report a very large shared LLC would need gigabytes, so the
// size is capped and both sizes are reported (host.llc_bytes,
// host.triad_array_bytes).
var (
	fullSizing  = sizing{steps: 60, jobSteps: 12, minJobs: 8, abSteps: 12, abEvery: 4, triadCap: 128 << 20, mpiCalls: 4000}
	quickSizing = sizing{steps: 3, particles: 200, jobSteps: 3, minJobs: 4, abSteps: 3, abEvery: 1, triadCap: 4 << 20, mpiCalls: 200}
)

func (sz sizing) count(full int) int {
	if sz.particles > 0 {
		return sz.particles
	}
	return full
}

// workload is one set of inputs. config builds its simulation unit: the
// run a simulation workload repeats back to back, or, for service_jobs,
// the run one submitted job executes.
type workload struct {
	name    string
	why     string
	service bool
	config  func(seed int64, sz sizing) repro.SimulationConfig
	// checkpoint and telemetry say whether the end-to-end runs carry a
	// checkpoint plan (every ckptEvery steps, 2 generations) and an
	// on-disk telemetry sink.
	checkpoint bool
	telemetry  bool
	ckptEvery  int
	// Reference outcome at the full sizing: deposited and exited shares
	// of the injected particles (checked to +-0.5 percentage points) and
	// the velocity maximum after the last step of the traced run.
	refDeposited, refExited float64
	refMaxVelocity          float64
	maxVelocityTol          float64
}

func baseConfig(seed int64, gens, ranks, steps, particles int) repro.SimulationConfig {
	cfg := repro.DefaultSimulationConfig()
	cfg.Mesh.Generations = gens
	cfg.Run.Mode = coupling.Synchronous
	cfg.Run.FluidRanks = ranks
	cfg.Run.RanksPerNode = ranks
	cfg.Run.WorkersPerRank = 1
	cfg.Run.Steps = steps
	cfg.Run.NumParticles = particles
	cfg.Run.NS.Strategy = tasking.StrategyMultidep
	cfg.Run.Seed = seed
	return cfg
}

var workloads = []*workload{
	{
		name: "fluid_sync",
		why:  "fluid layers (fem, tasking, la, navierstokes, simmpi halo+allreduce) are over 97% of the step and particles under 1%, so a particle-engine change must show nothing here",
		config: func(seed int64, sz sizing) repro.SimulationConfig {
			return baseConfig(seed, 3, 2, sz.steps, sz.count(2000))
		},
		refMaxVelocity: 37.7772088691053, maxVelocityTol: 1e-6,
	},
	{
		name: "particle_bolus",
		why:  "one 300000-particle bolus makes particles.Tracker.Step ~75% of the step with every particle on the inlet rank (the paper's Ln~0.02 pathology); fluid-kernel changes should barely move it",
		config: func(seed int64, sz sizing) repro.SimulationConfig {
			return baseConfig(seed, 2, 2, sz.steps, sz.count(300000))
		},
		refMaxVelocity: 37.777531540163196, maxVelocityTol: 1e-6,
	},
	{
		name: "coupled_dlb_breathing",
		why:  "coupled 2+2 ranks with DLB, a breathing inflow and a release every step: the particle store is mutated every step, pools are resized by lend/reclaim, checkpoints and telemetry are on the path",
		config: func(seed int64, sz sizing) repro.SimulationConfig {
			cfg := baseConfig(seed, 2, 2, sz.steps, sz.count(3000))
			cfg.Run.Mode = coupling.Coupled
			cfg.Run.ParticleRanks = 2
			cfg.Run.RanksPerNode = 4
			cfg.Run.UseDLB = true
			cfg.Run.NS.Inflow = navierstokes.BreathingWaveform{Period: 0.004}
			cfg.Run.InjectEvery = 1
			return cfg
		},
		checkpoint: true, telemetry: true, ckptEvery: 20,
		refDeposited: 0.325,
		// DLB-resized pools change the reduction order run to run, so the
		// flow repeats only to ~1e-8 here; the other workloads are exact.
		refMaxVelocity: 70.354956, maxVelocityTol: 1e-4,
	},
	{
		name:    "service_jobs",
		why:     "short jobs over HTTP make set-up, JSON, scheduler, memo, manifest+checkpoint fsyncs, telemetry and artifact render most of the latency, so work moved from the step loop into set-up shows as a loss",
		service: true,
		// What one submitted "breathing" job runs: the scenario's own
		// defaults under the options the clients send.
		config: func(seed int64, sz sizing) repro.SimulationConfig {
			cfg := repro.DefaultSimulationConfig()
			cfg.Run.FluidRanks = 2
			cfg.Run.Steps = sz.jobSteps
			cfg.Run.NumParticles = sz.count(1000)
			cfg.Run.InjectEvery = 1
			cfg.Run.Seed = seed
			cfg.Run.NS.Inflow = navierstokes.BreathingWaveform{Period: 2 * float64(sz.jobSteps) * cfg.Run.NS.Props.Dt}
			return cfg
		},
		checkpoint: true, telemetry: true, ckptEvery: 5,
		refMaxVelocity: 4.999568929882919, maxVelocityTol: 1e-6,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// serialVariant is the "plain single-threaded run of the same problem":
// one rank, one worker, serial assembly, synchronous mode.
func serialVariant(cfg repro.SimulationConfig) repro.SimulationConfig {
	cfg.Run.Mode = coupling.Synchronous
	cfg.Run.FluidRanks = 1
	cfg.Run.ParticleRanks = 0
	cfg.Run.RanksPerNode = 1
	cfg.Run.WorkersPerRank = 1
	cfg.Run.UseDLB = false
	cfg.Run.NS.Strategy = tasking.StrategySerial
	return cfg
}
