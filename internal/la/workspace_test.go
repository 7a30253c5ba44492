package la

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tasking"
)

// chainMatrix builds an n-node 1D Poisson-like matrix (tridiagonal,
// diagonally dominant, SPD) for solver tests.
func chainMatrix(n int) *CSRMatrix {
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			lists[i] = append(lists[i], int32(i-1))
		}
		if i < n-1 {
			lists[i] = append(lists[i], int32(i+1))
		}
	}
	a := NewCSRFromGraph(graph.FromAdjacency(lists))
	for i := 0; i < n; i++ {
		a.Val[a.Find(int32(i), int32(i))] = 4
		if i > 0 {
			a.Val[a.Find(int32(i), int32(i-1))] = -1
		}
		if i < n-1 {
			a.Val[a.Find(int32(i), int32(i+1))] = -1
		}
	}
	return a
}

// skewChainMatrix perturbs the chain asymmetrically so BiCGSTAB sees a
// genuinely nonsymmetric system.
func skewChainMatrix(n int) *CSRMatrix {
	a := chainMatrix(n)
	for i := 1; i < n; i++ {
		a.Val[a.Find(int32(i), int32(i-1))] = -1.35
	}
	return a
}

func solverRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// TestWorkspaceSolversBitIdenticalToAllocating pins the workspace
// determinism contract: a reused workspace, including one dirtied by a
// previous solve of the other solver, must reproduce the iterates of a
// solve that allocates a fresh workspace, bit for bit.
func TestWorkspaceSolversBitIdenticalToAllocating(t *testing.T) {
	const n = 700
	spd, skew := chainMatrix(n), skewChainMatrix(n)
	dSPD, dSkew := make([]float64, n), make([]float64, n)
	spd.Diagonal(dSPD)
	skew.Diagonal(dSkew)
	b := solverRHS(n, 7)

	xRef := make([]float64, n)
	statsRef, errRef := PCGWithWorkspace(OpsFromMatrix(spd), jacobi(dSPD), b, xRef, 1e-10, 300, NewKrylovWorkspace(n))
	xbRef := make([]float64, n)
	bstatsRef, berrRef := BiCGSTABWithWorkspace(OpsFromMatrix(skew), jacobi(dSkew), b, xbRef, 1e-10, 300, NewKrylovWorkspace(n))

	ws := NewKrylovWorkspace(n)
	for round := 0; round < 3; round++ {
		x := make([]float64, n)
		stats, err := PCGWithWorkspace(OpsFromMatrix(spd), jacobi(dSPD), b, x, 1e-10, 300, ws)
		if err != errRef || stats != statsRef {
			t.Fatalf("round %d: PCG reused-workspace stats (%+v, %v) != fresh (%+v, %v)", round, stats, err, statsRef, errRef)
		}
		for i := range x {
			if x[i] != xRef[i] {
				t.Fatalf("round %d: PCG reused-workspace x[%d] = %g, fresh %g", round, i, x[i], xRef[i])
			}
		}
		// The BiCGSTAB solve dirties the workspace before the next round's PCG.
		xb := make([]float64, n)
		bstats, berr := BiCGSTABWithWorkspace(OpsFromMatrix(skew), jacobi(dSkew), b, xb, 1e-10, 300, ws)
		if berr != berrRef || bstats != bstatsRef {
			t.Fatalf("round %d: BiCGSTAB reused-workspace stats (%+v, %v) != fresh (%+v, %v)", round, bstats, berr, bstatsRef, berrRef)
		}
		for i := range xb {
			if xb[i] != xbRef[i] {
				t.Fatalf("round %d: BiCGSTAB reused-workspace x[%d] = %g, fresh %g", round, i, xb[i], xbRef[i])
			}
		}
	}
}

// TestKrylovWorkspaceZeroAllocSerial asserts the acceptance criterion at
// the la layer: a steady-state PCG / BiCGSTAB solve through a reused
// workspace performs zero heap allocations with serial Ops.
func TestKrylovWorkspaceZeroAllocSerial(t *testing.T) {
	const n = 1500
	spd, skew := chainMatrix(n), skewChainMatrix(n)
	d := make([]float64, n)
	spd.Diagonal(d)
	b := solverRHS(n, 11)
	x := make([]float64, n)
	ws := NewKrylovWorkspace(n)

	inv := make([]float64, n)
	JacobiInvInto(d, inv)
	apply := JacobiApplier(inv)
	opsSPD := OpsFromMatrix(spd)
	pcgSolve := func() {
		Fill(x, 0)
		if _, err := PCGWithWorkspace(opsSPD, apply, b, x, 1e-10, 300, ws); err != nil {
			t.Fatal(err)
		}
	}
	pcgSolve()
	if avg := testing.AllocsPerRun(20, pcgSolve); avg != 0 {
		t.Errorf("steady-state PCG allocates %.2f objects per solve, want 0", avg)
	}

	skew.Diagonal(d)
	JacobiInvInto(d, inv)
	opsSkew := OpsFromMatrix(skew)
	bicgSolve := func() {
		Fill(x, 0)
		if _, err := BiCGSTABWithWorkspace(opsSkew, apply, b, x, 1e-10, 300, ws); err != nil {
			t.Fatal(err)
		}
	}
	bicgSolve()
	if avg := testing.AllocsPerRun(20, bicgSolve); avg != 0 {
		t.Errorf("steady-state BiCGSTAB allocates %.2f objects per solve, want 0", avg)
	}
}

// BenchmarkPCGWorkspace is the A/B partner of BenchmarkPCG: the same
// fixed 40-iteration sweep through a reused workspace (serial ops; the
// pool sweep lives in BenchmarkPCG). Run with -benchmem: allocs/op is
// the headline.
func BenchmarkPCGWorkspace(b *testing.B) {
	a := chainMatrix(200_000)
	rhs := solverRHS(a.N, 4)
	d := make([]float64, a.N)
	a.Diagonal(d)
	inv := make([]float64, a.N)
	JacobiInvInto(d, inv)
	apply := JacobiApplier(inv)
	ops := OpsFromMatrix(a)
	x := make([]float64, a.N)
	ws := NewKrylovWorkspace(a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(x, 0)
		if _, err := PCGWithWorkspace(ops, apply, rhs, x, 0, 40, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiCGSTABWorkspace is the A/B partner of BenchmarkBiCGSTAB.
func BenchmarkBiCGSTABWorkspace(b *testing.B) {
	a := skewChainMatrix(100_000)
	rhs := solverRHS(a.N, 6)
	d := make([]float64, a.N)
	a.Diagonal(d)
	inv := make([]float64, a.N)
	JacobiInvInto(d, inv)
	apply := JacobiApplier(inv)
	ops := OpsFromMatrix(a)
	x := make([]float64, a.N)
	ws := NewKrylovWorkspace(a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(x, 0)
		if _, err := BiCGSTABWithWorkspace(ops, apply, rhs, x, 0, 20, ws); err != nil && err != ErrBreakdown {
			b.Fatal(err)
		}
	}
}

// TestKrylovWorkspaceZeroAllocOnPool repeats the zero-allocation
// assertion with the threaded kernel layer at 1 and 4 workers — the
// configuration the distributed solver runs, where per-call closures or
// loop-state churn in ParOps / ParallelFor would show up.
func TestKrylovWorkspaceZeroAllocOnPool(t *testing.T) {
	const n = 9000 // above parMinN so the kernels actually fan out
	spd := chainMatrix(n)
	d := make([]float64, n)
	spd.Diagonal(d)
	inv := make([]float64, n)
	JacobiInvInto(d, inv)
	apply := JacobiApplier(inv)
	b := solverRHS(n, 13)
	x := make([]float64, n)

	for _, workers := range []int{1, 4} {
		pool := tasking.NewPool(workers)
		par := NewParOps(pool)
		ops := parOps(spd, par)
		ws := NewKrylovWorkspace(n)
		solve := func() {
			Fill(x, 0)
			if _, err := PCGWithWorkspace(ops, apply, b, x, 1e-8, 120, ws); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ { // warm the loop-state freelist
			solve()
		}
		if avg := testing.AllocsPerRun(10, solve); avg != 0 {
			t.Errorf("workers=%d: steady-state pooled PCG allocates %.2f objects per solve, want 0", workers, avg)
		}
		pool.Close()
	}
}
