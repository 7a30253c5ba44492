package navierstokes

import (
	"math"
	"sync"
	"testing"

	"repro/internal/la"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// TestPrunedPressureMatrixSameSolve: on every rank of a two-rank
// solver, the pressure matrix with its zeros dropped has the unpruned
// matrix's diagonal, and distributed PCG on it — halo exchange, owned
// reductions and all — gives the unpruned matrix's iterates: identical
// solution bits and SolveStats. The unpruned L is rebuilt by running
// assembleStatic again into a matrix on A's pattern.
func TestPrunedPressureMatrixSameSolve(t *testing.T) {
	m := testMesh(t)
	p, err := partition.KWay(m.DualByNode(), nil, 2)
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
	var mu sync.Mutex
	nnzFull, nnzPruned := 0, 0
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(2)
		defer pool.Close()
		s, err := NewSolver(m, rms[r.ID()], r.Comm, pool, DefaultConfig(), DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		pruned := s.L
		full := &la.CSRMatrix{N: s.A.N, Ptr: s.A.Ptr, Col: s.A.Col, Val: make([]float64, s.A.NNZ())}
		s.L = full
		s.assembleStatic() // collective: both ranks rebuild
		s.L = pruned
		mu.Lock()
		nnzFull += full.NNZ()
		nnzPruned += pruned.NNZ()
		mu.Unlock()

		n := full.N
		df, dp := make([]float64, n), make([]float64, n)
		full.Diagonal(df)
		pruned.Diagonal(dp)
		for i := range df {
			if math.Float64bits(df[i]) != math.Float64bits(dp[i]) {
				t.Errorf("rank %d: Diagonal[%d] = %x pruned, %x unpruned", r.ID(), i, dp[i], df[i])
				return
			}
		}

		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(s.RM.GlobalNode[i]))
		}
		solve := func(a *la.CSRMatrix) ([]float64, la.SolveStats, error) {
			x := make([]float64, n)
			st, err := la.PCGWithWorkspace(s.ops(a), s.lPrecond, b, x, s.Cfg.TolPressure, 300, s.ws)
			return x, st, err
		}
		xf, stf, errf := solve(full)
		xp, stp, errp := solve(pruned)
		if errf != errp || stf.Iterations != stp.Iterations || stf.Converged != stp.Converged ||
			math.Float64bits(stf.Residual) != math.Float64bits(stp.Residual) {
			t.Errorf("rank %d: pruned solve %+v (%v), unpruned %+v (%v)", r.ID(), stp, errp, stf, errf)
		}
		if stf.Iterations < 10 {
			t.Errorf("rank %d: only %d PCG iterations; the comparison needs a real solve", r.ID(), stf.Iterations)
		}
		for i := range xf {
			if math.Float64bits(xf[i]) != math.Float64bits(xp[i]) {
				t.Errorf("rank %d: x[%d] = %x pruned, %x unpruned", r.ID(), i, xp[i], xf[i])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if nnzPruned >= nnzFull {
		t.Fatalf("dropping zeros kept nnz at %d of %d", nnzPruned, nnzFull)
	}
}
