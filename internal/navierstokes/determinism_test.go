package navierstokes

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// runSolverWithWorkers advances one single-rank solver a few steps on a
// pool of the given size and returns the final velocity, pressure and
// per-element subgrid-scale fields.
func runSolverWithWorkers(t *testing.T, m *mesh.Mesh, workers, steps int) ([3][]float64, []float64, []mesh.Vec3) {
	t.Helper()
	dual := m.DualByNode()
	p, err := partition.KWay(dual, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	world, err := simmpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	// Serial momentum assembly: the phases under test are the threaded
	// la kernel layer (SpMV, reductions, vector updates, and the
	// compute-parallel projection loops) and the owner-computes SGS
	// loop on the pool, which must be bit-identical at any worker count.
	cfg.Strategy = tasking.StrategySerial
	var u [3][]float64
	var pr []float64
	var sgs []mesh.Vec3
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(workers)
		defer pool.Close()
		s, err := NewSolver(m, rms[0], r.Comm, pool, cfg, DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
		for c := 0; c < 3; c++ {
			u[c] = append([]float64(nil), s.U[c]...)
		}
		pr = append([]float64(nil), s.P...)
		sgs = append([]mesh.Vec3(nil), s.SGS...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return u, pr, sgs
}

// TestSolverBitIdenticalAcrossWorkerCounts is the solver-level
// determinism contract of the threaded kernels: the velocity, pressure
// and subgrid-scale fields after several steps must be bit-for-bit equal
// on pools of 1, 2, 4 and 8 workers.
func TestSolverBitIdenticalAcrossWorkerCounts(t *testing.T) {
	m := testMesh(t)
	refU, refP, refSGS := runSolverWithWorkers(t, m, 1, 3)
	for _, workers := range []int{2, 4, 8} {
		u, p, sgs := runSolverWithWorkers(t, m, workers, 3)
		for c := 0; c < 3; c++ {
			for i := range refU[c] {
				if u[c][i] != refU[c][i] {
					t.Fatalf("workers=%d: U[%d][%d]=%x, want %x", workers, c, i, u[c][i], refU[c][i])
				}
			}
		}
		for i := range refP {
			if p[i] != refP[i] {
				t.Fatalf("workers=%d: P[%d]=%x, want %x", workers, i, p[i], refP[i])
			}
		}
		for e := range refSGS {
			if sgs[e] != refSGS[e] {
				t.Fatalf("workers=%d: SGS[%d]=%v, want %v", workers, e, sgs[e], refSGS[e])
			}
		}
	}
}
