package coupling

import (
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

func testMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 1
	cfg.NTheta = 8
	cfg.NAxial = 4
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fastCfg() RunConfig {
	cfg := DefaultRunConfig()
	cfg.Steps = 2
	cfg.NumParticles = 200
	cfg.NS.Strategy = tasking.StrategySerial
	cfg.NS.SGSStrategy = tasking.StrategySerial
	cfg.RanksPerNode = 4
	return cfg
}

func TestSynchronousRun(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.FluidRanks = 4
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected < cfg.NumParticles/2 {
		t.Fatalf("injected %d of %d", res.Injected, cfg.NumParticles)
	}
	if res.Injected != res.ActiveEnd+res.Deposited+res.Exited {
		t.Fatalf("particle conservation: %d != %d+%d+%d",
			res.Injected, res.ActiveEnd, res.Deposited, res.Exited)
	}
	if res.Makespan <= 0 {
		t.Fatal("no virtual time recorded")
	}
	// Phases present: assembly and particles.
	times := res.Trace.PhaseTimes()
	sum := func(p trace.Phase) float64 {
		s := 0.0
		for _, v := range times[p] {
			s += v
		}
		return s
	}
	if sum(trace.PhaseAssembly) <= 0 || sum(trace.PhaseParticles) <= 0 {
		t.Fatal("missing phase time")
	}
}

func TestSynchronousParticleImbalance(t *testing.T) {
	// At injection every particle sits at the inlet: the particle phase
	// must be grossly imbalanced across ranks (the paper's L96 = 0.02
	// pathology, scaled down to this world size).
	m := testMesh(t)
	cfg := fastCfg()
	cfg.FluidRanks = 8
	cfg.Steps = 2
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	times := res.Trace.PhaseTimes()[trace.PhaseParticles]
	busy := 0
	for _, v := range times {
		if v > 0 {
			busy++
		}
	}
	if busy > 4 {
		t.Fatalf("particle work spread over %d/8 ranks right after injection; expected concentration near the inlet", busy)
	}
}

func TestCoupledRun(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.Mode = Coupled
	cfg.FluidRanks = 3
	cfg.ParticleRanks = 2
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected < cfg.NumParticles/2 {
		t.Fatalf("injected %d", res.Injected)
	}
	if res.Injected != res.ActiveEnd+res.Deposited+res.Exited {
		t.Fatalf("conservation: %d != %d+%d+%d", res.Injected, res.ActiveEnd, res.Deposited, res.Exited)
	}
	// Particle phase time must be recorded on particle ranks only.
	times := res.Trace.PhaseTimes()[trace.PhaseParticles]
	for r := 0; r < cfg.FluidRanks; r++ {
		if times[r] != 0 {
			t.Fatalf("fluid rank %d recorded particle time", r)
		}
	}
	pTime := 0.0
	for r := cfg.FluidRanks; r < cfg.FluidRanks+cfg.ParticleRanks; r++ {
		pTime += times[r]
	}
	if pTime <= 0 {
		t.Fatal("particle ranks recorded no particle time")
	}
	// Assembly happens on fluid ranks only.
	aTimes := res.Trace.PhaseTimes()[trace.PhaseAssembly]
	for r := cfg.FluidRanks; r < cfg.FluidRanks+cfg.ParticleRanks; r++ {
		if aTimes[r] != 0 {
			t.Fatalf("particle rank %d recorded assembly time", r)
		}
	}
}

func TestCoupledModeValidation(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.Mode = Coupled
	cfg.ParticleRanks = 0
	if _, err := Run(m, cfg); err == nil {
		t.Fatal("coupled mode without particle ranks must error")
	}
	cfg = fastCfg()
	cfg.ParticleRanks = 2 // invalid in synchronous mode
	if _, err := Run(m, cfg); err == nil {
		t.Fatal("synchronous mode with particle ranks must error")
	}
	cfg = fastCfg()
	cfg.Steps = 0
	cfg.ParticleRanks = 0
	if _, err := Run(m, cfg); err == nil {
		t.Fatal("zero steps must error")
	}
}

// lateRankZero is a fault plan that holds world rank 0 back for far
// longer than any spin budget before its first collective (the world
// Split), so every other rank parks there at least once, whatever
// GOMAXPROCS: DLB lends only on a park. A delay moves wall-clock time
// only, never a result.
func lateRankZero() *simmpi.FaultPlan {
	return &simmpi.FaultPlan{Rules: []simmpi.FaultRule{{
		Rank: 0, Op: simmpi.FaultCollective, Tag: -1, Step: 0, Nth: 1,
		Action: simmpi.FaultDelay, Delay: 50 * time.Millisecond,
	}}}
}

func TestDLBLendsDuringCoupledRun(t *testing.T) {
	// With DLB on and both codes on one node, a parked side's cores must
	// get lent at least once.
	m := testMesh(t)
	cfg := fastCfg()
	cfg.Mode = Coupled
	cfg.FluidRanks = 2
	cfg.ParticleRanks = 2
	cfg.RanksPerNode = 4 // one node: lending possible
	cfg.UseDLB = true
	cfg.WorkersPerRank = 2
	cfg.FaultPlan = lateRankZero()
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DLB.Lends == 0 {
		t.Fatal("DLB never lent despite blocking calls on a shared node")
	}
	if res.DLB.Lends != res.DLB.Reclaims {
		t.Fatalf("lends %d != reclaims %d after completed run", res.DLB.Lends, res.DLB.Reclaims)
	}
}

func TestModeString(t *testing.T) {
	if Synchronous.String() != "synchronous" || Coupled.String() != "coupled" {
		t.Fatal("mode names")
	}
}
