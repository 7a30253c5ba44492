package navierstokes

import (
	"math"
	"testing"
	"time"

	"repro/internal/dlb"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

// TestHybridMultithreadedMatchesSerial runs the full solver with real
// multi-threaded pools (the hybrid MPI+OpenMP configuration of Figure 6)
// and checks the field against the serial reference.
func TestHybridMultithreadedMatchesSerial(t *testing.T) {
	m := testMesh(t)
	base := DefaultConfig()
	base.Strategy = tasking.StrategySerial
	ref, _ := runDistributed(t, m, 2, 2, base)
	scale := 0.0
	for _, v := range ref {
		for c := 0; c < 3; c++ {
			scale = math.Max(scale, math.Abs(v[c]))
		}
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
	world, err := simmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	field := make([][3]float64, m.NumNodes())
	cfg := DefaultConfig()
	cfg.Strategy = tasking.StrategyMultidep
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(4) // 4 real threads per rank
		defer pool.Close()
		s, err := NewSolver(m, rms[r.ID()], r.Comm, pool, cfg, DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
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
	worst := 0.0
	for g := range ref {
		for c := 0; c < 3; c++ {
			worst = math.Max(worst, math.Abs(ref[g][c]-field[g][c]))
		}
	}
	if worst > 1e-4*scale {
		t.Fatalf("hybrid multithreaded deviates: worst %g (scale %g)", worst, scale)
	}
}

// TestSolverUnderDLB runs the solver with DLB installed and real lending
// active; results must stay correct while cores move between ranks. DLB
// lends only when a rank parks, so rank 0 arrives at an opening barrier
// only once a peer has parked there: at least one lend at any GOMAXPROCS.
func TestSolverUnderDLB(t *testing.T) {
	m := testMesh(t)
	dual := m.DualByNode()
	const ranks = 4
	p, err := partition.KWay(dual, nil, ranks)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	d := dlb.New(true)
	world, err := simmpi.NewWorld(ranks, simmpi.WithRanksPerNode(ranks), simmpi.WithBlockingHooks(d))
	if err != nil {
		t.Fatal(err)
	}
	pools := make([]*tasking.Pool, ranks)
	for i := range pools {
		pools[i] = tasking.NewPool(2 * ranks)
		pools[i].SetWorkers(2)
		if err := d.Register(i, 0, pools[i], 2); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, pl := range pools {
			pl.Close()
		}
	}()
	tr := trace.NewTrace(ranks)
	cfg := DefaultConfig()
	cfg.Strategy = tasking.StrategyMultidep
	err = world.Run(func(r *simmpi.Rank) {
		if r.ID() == 0 {
			for d.Snapshot().Lends == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		r.Comm.Barrier()
		s, err := NewSolver(m, rms[r.ID()], r.Comm, pools[r.ID()], cfg, DefaultCostModel(), tr.Ranks[r.ID()])
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
		if v := s.MaxVelocity(); math.IsNaN(v) || v <= 0 {
			panic("flow broken under DLB")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := d.Snapshot()
	if st.Lends == 0 {
		t.Fatal("DLB never engaged during the solve")
	}
	if st.Lends != st.Reclaims {
		t.Fatalf("unbalanced lending: %d lends, %d reclaims", st.Lends, st.Reclaims)
	}
}

// TestZeroElementRank: a world larger than the mesh can supply work to
// every rank; empty ranks must still participate in collectives.
func TestZeroElementRank(t *testing.T) {
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 0
	cfg.NTheta = 6
	cfg.NAxial = 2
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Partition into many more ranks than the mesh can fill evenly.
	ncfg := DefaultConfig()
	ncfg.Strategy = tasking.StrategySerial
	field, _ := runDistributed(t, m, 32, 1, ncfg)
	for _, v := range field {
		for c := 0; c < 3; c++ {
			if math.IsNaN(v[c]) {
				t.Fatal("NaN with sparse ranks")
			}
		}
	}
}
