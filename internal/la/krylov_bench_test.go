package la

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// l2System builds a fluid-rank-sized system: n rows, ~13 nonzeros per row
// on a random symmetric pattern, diagonally dominant with a positive
// diagonal (so SPD when sym), the size BenchmarkSpMVL2 times.
func l2System(n int, sym bool, seed int64) *CSRMatrix {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, 6*n)
	for i := 0; i < 6*n; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	a := NewCSRFromGraph(graph.FromEdges(n, edges))
	for i := int32(0); i < int32(n); i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if j := a.Col[k]; j < i || (!sym && j != i) {
				v := -rng.Float64()
				a.Val[k] = v
				if sym {
					a.Val[a.Find(j, i)] = v
				}
			}
		}
	}
	for i := int32(0); i < int32(n); i++ {
		rowAbs := 0.0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if a.Col[k] != i {
				rowAbs -= a.Val[k]
			}
		}
		a.Val[a.Find(i, i)] = rowAbs + 1 + rng.Float64()
	}
	return a
}

// benchIters times fixed-length solves (tol 0) through a reused
// workspace on a fluid rank's Ops shape — a serial kernel layer, the
// last tenth of the rows not owned — and reports ns per iteration.
func benchIters(b *testing.B, a *CSRMatrix, iters int, solve func(Ops, func(r, z []float64), []float64, []float64, float64, int, *KrylovWorkspace) (SolveStats, error)) {
	n := a.N
	d, inv := make([]float64, n), make([]float64, n)
	a.Diagonal(d)
	JacobiInvInto(d, inv)
	owned := make([]bool, n)
	for i := range owned {
		owned[i] = i < n-n/10
	}
	ops, precond := rankOps(a, owned, NewParOps(nil)), JacobiApplier(inv)
	rhs, x := solverRHS(n, 3), make([]float64, n)
	ws := NewKrylovWorkspace(n)
	done := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(x, 0)
		st, err := solve(ops, precond, rhs, x, 0, iters, ws)
		if err != nil {
			b.Fatal(err)
		}
		done += st.Iterations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(done, 1)), "ns/iter")
}

// BenchmarkPCGIterL2 times Solver2's iteration at fluid-rank size.
func BenchmarkPCGIterL2(b *testing.B) {
	benchIters(b, l2System(1300, true, 1), 40, PCGWithWorkspace)
}

// BenchmarkBiCGSTABIterL2 times Solver1's iteration at fluid-rank size.
func BenchmarkBiCGSTABIterL2(b *testing.B) {
	benchIters(b, l2System(1300, false, 2), 20, BiCGSTABWithWorkspace)
}
