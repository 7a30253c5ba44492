package navierstokes

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/partition"
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

// runDistributed executes `steps` time steps on `ranks` ranks and returns
// the global nodal velocity field (gathered, indexed by global node id)
// plus the trace.
func runDistributed(t testing.TB, m *mesh.Mesh, ranks, steps int, cfg Config) ([][3]float64, *trace.Trace) {
	t.Helper()
	dual := m.DualByNode()
	p, err := partition.KWay(dual, nil, ranks)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	world, err := simmpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTrace(ranks)
	field := make([][3]float64, m.NumNodes())
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(2)
		defer pool.Close()
		s, err := NewSolver(m, rms[r.ID()], r.Comm, pool, cfg, DefaultCostModel(), tr.Ranks[r.ID()])
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
		// Publish owned node velocities (no two ranks own one node).
		for i, owned := range s.RM.Owned {
			if owned {
				g := s.RM.GlobalNode[i]
				field[g] = [3]float64{s.U[0][i], s.U[1][i], s.U[2][i]}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return field, tr
}

func TestSerialSolverProducesInhalationFlow(t *testing.T) {
	m := testMesh(t)
	cfg := DefaultConfig()
	cfg.Strategy = tasking.StrategySerial
	cfg.SGSStrategy = tasking.StrategySerial
	field, _ := runDistributed(t, m, 1, 3, cfg)

	// All values finite.
	for g, v := range field {
		for c := 0; c < 3; c++ {
			if math.IsNaN(v[c]) || math.IsInf(v[c], 0) {
				t.Fatalf("node %d component %d is %g", g, c, v[c])
			}
		}
	}
	// Inlet nodes carry the inhalation velocity (where not wall).
	wall := map[int32]bool{}
	for _, w := range m.WallNodes {
		wall[w] = true
	}
	checked := 0
	for _, nd := range m.InletNodes {
		if wall[nd] {
			continue
		}
		if math.Abs(field[nd][2]-cfg.InletVelocity.Z) > 1e-6 {
			t.Fatalf("inlet node %d w=%g, want %g", nd, field[nd][2], cfg.InletVelocity.Z)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no pure inlet nodes checked")
	}
	// Wall nodes are no-slip.
	for _, nd := range m.WallNodes[:10] {
		if v := field[nd]; v[0] != 0 || v[1] != 0 || v[2] != 0 {
			t.Fatalf("wall node %d moving: %v", nd, v)
		}
	}
	// The flow penetrates: some interior (non-BC) node moves downward.
	moving := 0
	bc := map[int32]bool{}
	for _, w := range m.WallNodes {
		bc[w] = true
	}
	for _, w := range m.InletNodes {
		bc[w] = true
	}
	for g, v := range field {
		if !bc[int32(g)] && v[2] < -1e-4 {
			moving++
		}
	}
	if moving < 10 {
		t.Fatalf("only %d interior nodes moving downward; flow did not develop", moving)
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	m := testMesh(t)
	cfg := DefaultConfig()
	cfg.Strategy = tasking.StrategySerial
	cfg.SGSStrategy = tasking.StrategySerial
	serial, _ := runDistributed(t, m, 1, 2, cfg)
	dist, _ := runDistributed(t, m, 4, 2, cfg)

	// Compare relative to the velocity scale.
	scale := 0.0
	for _, v := range serial {
		for c := 0; c < 3; c++ {
			scale = math.Max(scale, math.Abs(v[c]))
		}
	}
	worst := 0.0
	for g := range serial {
		for c := 0; c < 3; c++ {
			d := math.Abs(serial[g][c] - dist[g][c])
			worst = math.Max(worst, d)
		}
	}
	if worst > 1e-4*scale {
		t.Fatalf("serial vs 4-rank mismatch: worst %g (scale %g)", worst, scale)
	}
}

func TestStrategiesAgree(t *testing.T) {
	m := testMesh(t)
	base := DefaultConfig()
	base.Strategy = tasking.StrategySerial
	base.SGSStrategy = tasking.StrategySerial
	ref, _ := runDistributed(t, m, 2, 2, base)
	scale := 0.0
	for _, v := range ref {
		for c := 0; c < 3; c++ {
			scale = math.Max(scale, math.Abs(v[c]))
		}
	}
	for _, strat := range []tasking.Strategy{tasking.StrategyAtomic, tasking.StrategyColoring, tasking.StrategyMultidep} {
		cfg := base
		cfg.Strategy = strat
		cfg.SGSStrategy = strat
		got, _ := runDistributed(t, m, 2, 2, cfg)
		worst := 0.0
		for g := range ref {
			for c := 0; c < 3; c++ {
				worst = math.Max(worst, math.Abs(ref[g][c]-got[g][c]))
			}
		}
		if worst > 1e-4*scale {
			t.Fatalf("strategy %v deviates from serial: worst %g (scale %g)", strat, worst, scale)
		}
	}
}

func TestTraceRecordsAllPhases(t *testing.T) {
	m := testMesh(t)
	cfg := DefaultConfig()
	cfg.Strategy = tasking.StrategySerial
	cfg.SGSStrategy = tasking.StrategySerial
	_, tr := runDistributed(t, m, 4, 2, cfg)
	times := tr.PhaseTimes()
	for _, p := range []trace.Phase{trace.PhaseAssembly, trace.PhaseSolver1, trace.PhaseSolver2, trace.PhaseSGS} {
		sum := 0.0
		for _, v := range times[p] {
			sum += v
		}
		if sum <= 0 {
			t.Fatalf("phase %v recorded no time", p)
		}
	}
	// All ranks end at the same clock (bulk-synchronous alignment).
	c0 := tr.Ranks[0].Clock()
	for _, rt := range tr.Ranks[1:] {
		if math.Abs(rt.Clock()-c0) > 1e-9 {
			t.Fatalf("ranks desynchronized: %g vs %g", rt.Clock(), c0)
		}
	}
}

func TestStepStatsSane(t *testing.T) {
	m := testMesh(t)
	dual := m.DualByNode()
	p, _ := partition.KWay(dual, nil, 1)
	rms, _ := partition.BuildRankMeshes(m, p.Parts, 1)
	world, _ := simmpi.NewWorld(1)
	err := world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(1)
		defer pool.Close()
		cfg := DefaultConfig()
		cfg.Strategy = tasking.StrategySerial
		cfg.SGSStrategy = tasking.StrategySerial
		s, err := NewSolver(m, rms[0], r.Comm, pool, cfg, DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		st, err := s.Step()
		if err != nil {
			panic(err)
		}
		if st.MomentumIters <= 0 || st.PressureIters <= 0 {
			panic("no solver iterations recorded")
		}
		if st.MomentumRes > cfg.TolMomentum*10 || st.PressureRes > cfg.TolPressure*10 {
			panic("solvers did not converge")
		}
		if s.MaxVelocity() <= 0 {
			panic("flow did not start")
		}
		if v := s.VelocityAt(0); math.IsNaN(v.X) {
			panic("velocity access")
		}
		if v := s.VelocityAt(int32(m.NumNodes() - 1)); math.IsNaN(v.Norm()) {
			panic("velocity access at last node")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNewSolver times the per-rank set-up on one rank of the
// generation-2 airway with the multidependences strategy: node graph,
// matrix patterns, local dual, sub-partition and assembly plans.
func BenchmarkNewSolver(b *testing.B) {
	mcfg := mesh.DefaultAirwayConfig()
	mcfg.Generations = 2
	m, err := mesh.GenerateAirway(mcfg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := partition.KWay(m.DualByNode(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 1)
	if err != nil {
		b.Fatal(err)
	}
	world, err := simmpi.NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = tasking.StrategyMultidep
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(1)
		defer pool.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewSolver(m, rms[0], r.Comm, pool, cfg, DefaultCostModel(), nil); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
