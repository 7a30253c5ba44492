package la

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tasking"
)

// workerCounts is the sweep the equivalence suite pins: the parallel
// kernels must match the serial reference bit for bit at every count.
var workerCounts = []int{1, 2, 4, 8}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func withPools(t *testing.T, fn func(t *testing.T, workers int, par *ParOps)) {
	t.Helper()
	for _, w := range workerCounts {
		pool := tasking.NewPool(w)
		fn(t, w, NewParOps(pool))
		pool.Close()
	}
}

func TestParMulVecBitIdentical(t *testing.T) {
	a := randomDiagDominant(12000, 3)
	x := randVec(a.N, 7)
	want := make([]float64, a.N)
	a.MulVec(x, want)
	withPools(t, func(t *testing.T, w int, par *ParOps) {
		got := make([]float64, a.N)
		par.MulVec(a, x, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: y[%d]=%x, serial %x", w, i, got[i], want[i])
			}
		}
	})
}

func TestParDotMatchesChunkedReference(t *testing.T) {
	n := 100_000
	x, y := randVec(n, 1), randVec(n, 2)
	mask := make([]bool, n)
	rng := rand.New(rand.NewSource(9))
	for i := range mask {
		mask[i] = rng.Intn(3) != 0
	}
	wantDot := DotChunked(x, y)
	wantMasked := MaskedDotChunked(mask, x, y)
	wantNorm := NewParOps(nil).Norm2(x)
	withPools(t, func(t *testing.T, w int, par *ParOps) {
		if got := par.Dot(x, y); got != wantDot {
			t.Fatalf("workers=%d: Dot=%x, reference %x", w, got, wantDot)
		}
		if got := par.MaskedDot(mask, x, y); got != wantMasked {
			t.Fatalf("workers=%d: MaskedDot=%x, reference %x", w, got, wantMasked)
		}
		if got := par.Norm2(x); got != wantNorm {
			t.Fatalf("workers=%d: Norm2=%x, reference %x", w, got, wantNorm)
		}
	})
}

func TestDotChunkedEqualsSerialFoldBelowChunk(t *testing.T) {
	// Up to one reduction chunk the chunked order degenerates to the
	// plain left-to-right fold, which is why small solves (the golden
	// run's meshes) keep their exact serial bits under ParOps.
	for _, n := range []int{1, 100, reductionChunk} {
		x, y := randVec(n, 11), randVec(n, 12)
		if DotChunked(x, y) != Dot(x, y) {
			t.Fatalf("n=%d: DotChunked diverges from serial Dot", n)
		}
	}
}

func TestParAxpyBitIdentical(t *testing.T) {
	n := 50_000
	x := randVec(n, 21)
	want := randVec(n, 22)
	Axpy(0.37, x, want)
	withPools(t, func(t *testing.T, w int, par *ParOps) {
		got := randVec(n, 22)
		par.Axpy(0.37, x, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: y[%d] differs", w, i)
			}
		}
	})
}

func TestParRangeCoversAllOnce(t *testing.T) {
	n := 30_000
	withPools(t, func(t *testing.T, w int, par *ParOps) {
		hits := make([]int32, n)
		par.Range(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++ // disjoint chunks: no atomics needed
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
			}
		}
	})
}

// TestPCGBitIdenticalAcrossWorkers runs the pressure-phase solver on
// pooled Ops at every worker count and demands bit-identical iterates —
// the contract that keeps RunSimulation's golden values independent of
// the thread count.
func TestPCGBitIdenticalAcrossWorkers(t *testing.T) {
	a := laplacian1D(20_000)
	b := randVec(a.N, 5)
	d := make([]float64, a.N)
	a.Diagonal(d)
	var ref []float64
	var refStats SolveStats
	withPools(t, func(t *testing.T, w int, par *ParOps) {
		x := make([]float64, a.N)
		stats, err := PCGWithWorkspace(ParOpsFromMatrix(a, par), jacobi(d), b, x, 1e-10, 120, NewKrylovWorkspace(len(x)))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref, refStats = x, stats
			return
		}
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", w, stats, refStats)
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d: x[%d]=%x, want %x", w, i, x[i], ref[i])
			}
		}
	})
}

func TestBiCGSTABBitIdenticalAcrossWorkers(t *testing.T) {
	a := randomDiagDominant(15_000, 17)
	b := randVec(a.N, 6)
	d := make([]float64, a.N)
	a.Diagonal(d)
	var ref []float64
	var refStats SolveStats
	withPools(t, func(t *testing.T, w int, par *ParOps) {
		x := make([]float64, a.N)
		stats, err := BiCGSTABWithWorkspace(ParOpsFromMatrix(a, par), jacobi(d), b, x, 1e-10, 200, NewKrylovWorkspace(len(x)))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref, refStats = x, stats
			return
		}
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", w, stats, refStats)
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d: x[%d]=%x, want %x", w, i, x[i], ref[i])
			}
		}
	})
}

// TestParPCGEqualsSerialOnSmallSystem: below the reduction chunk the
// pooled solve reproduces the fully serial solve bit for bit, so
// existing small-mesh goldens cannot move.
func TestParPCGEqualsSerialOnSmallSystem(t *testing.T) {
	a := laplacian1D(2000)
	b := randVec(a.N, 8)
	want := make([]float64, a.N)
	wantStats, err := PCGWithWorkspace(OpsFromMatrix(a), identity, b, want, 1e-10, 500, NewKrylovWorkspace(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	pool := tasking.NewPool(4)
	defer pool.Close()
	got := make([]float64, a.N)
	gotStats, err := PCGWithWorkspace(ParOpsFromMatrix(a, NewParOps(pool)), identity, b, got, 1e-10, 500, NewKrylovWorkspace(len(got)))
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("x[%d]=%x, serial %x", i, got[i], want[i])
		}
	}
}

func TestNewCSRFromGraphUnsortedAdjacency(t *testing.T) {
	// Hand-built CSR with descending, duplicated and self-loop entries:
	// vertex 0 ~ {3,1}, vertex 1 ~ {0,2}, vertex 2 ~ {1}, vertex 3 ~ {0}.
	dirty := &graph.CSR{
		Ptr: []int32{0, 3, 6, 7, 8},
		Adj: []int32{3, 1, 3, 2, 0, 1, 1, 0}, // dup 3 in row 0, dup+self 1 in row 1
	}
	clean := graph.FromEdges(4, []graph.Edge{{U: 0, V: 3}, {U: 0, V: 1}, {U: 1, V: 2}})
	got := NewCSRFromGraph(dirty)
	want := NewCSRFromGraph(clean)
	if got.N != want.N || got.NNZ() != want.NNZ() {
		t.Fatalf("pattern size %d/%d, want %d/%d", got.N, got.NNZ(), want.N, want.NNZ())
	}
	for i := range want.Ptr {
		if got.Ptr[i] != want.Ptr[i] {
			t.Fatalf("ptr[%d]=%d, want %d", i, got.Ptr[i], want.Ptr[i])
		}
	}
	for k := range want.Col {
		if got.Col[k] != want.Col[k] {
			t.Fatalf("col[%d]=%d, want %d", k, got.Col[k], want.Col[k])
		}
	}
	// Rows must be strictly ascending with the diagonal present, or
	// Find's binary search (and hence Add) silently misbehaves.
	for i := 0; i < got.N; i++ {
		if got.Find(int32(i), int32(i)) < 0 {
			t.Fatalf("row %d missing diagonal", i)
		}
		for k := got.Ptr[i] + 1; k < got.Ptr[i+1]; k++ {
			if got.Col[k] <= got.Col[k-1] {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
		}
		for k := got.Ptr[i]; k < got.Ptr[i+1]; k++ {
			got.Add(int32(i), got.Col[k], 1) // every slot addressable
		}
	}
}

// --- benchmarks: the Solver1/Solver2 kernel hot path ---

func benchPools(b *testing.B, run func(b *testing.B, par *ParOps)) {
	b.Run("serial", func(b *testing.B) { run(b, nil) })
	for _, w := range []int{1, 2, 4} {
		b.Run("pool-"+string(rune('0'+w)), func(b *testing.B) {
			pool := tasking.NewPool(w)
			defer pool.Close()
			run(b, NewParOps(pool))
		})
	}
}

func BenchmarkSpMV(b *testing.B) {
	a := laplacian1D(1 << 18)
	x := randVec(a.N, 1)
	y := make([]float64, a.N)
	benchPools(b, func(b *testing.B, par *ParOps) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if par == nil {
				a.MulVec(x, y)
			} else {
				par.MulVec(a, x, y)
			}
		}
	})
}

func BenchmarkDot(b *testing.B) {
	x := randVec(1<<20, 2)
	y := randVec(1<<20, 3)
	benchPools(b, func(b *testing.B, par *ParOps) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if par == nil {
				sinkDot = DotChunked(x, y)
			} else {
				sinkDot = par.Dot(x, y)
			}
		}
	})
}

var sinkDot float64

// BenchmarkPCG measures a fixed 40-iteration CG sweep (tol=0 so every
// variant does identical work) on a Solver2-sized system.
func BenchmarkPCG(b *testing.B) {
	a := laplacian1D(200_000)
	rhs := randVec(a.N, 4)
	d := make([]float64, a.N)
	a.Diagonal(d)
	benchPools(b, func(b *testing.B, par *ParOps) {
		x := make([]float64, a.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops := OpsFromMatrix(a)
			if par != nil {
				ops = ParOpsFromMatrix(a, par)
			}
			Fill(x, 0)
			if _, err := PCGWithWorkspace(ops, jacobi(d), rhs, x, 0, 40, NewKrylovWorkspace(len(x))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBiCGSTAB measures a fixed 20-iteration momentum-style solve.
func BenchmarkBiCGSTAB(b *testing.B) {
	a := randomDiagDominant(100_000, 5)
	rhs := randVec(a.N, 6)
	d := make([]float64, a.N)
	a.Diagonal(d)
	benchPools(b, func(b *testing.B, par *ParOps) {
		x := make([]float64, a.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops := OpsFromMatrix(a)
			if par != nil {
				ops = ParOpsFromMatrix(a, par)
			}
			Fill(x, 0)
			if _, err := BiCGSTABWithWorkspace(ops, jacobi(d), rhs, x, 0, 20, NewKrylovWorkspace(len(x))); err != nil && err != ErrBreakdown {
				b.Fatal(err)
			}
		}
	})
}
