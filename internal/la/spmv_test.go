package la

import (
	"math"
	"math/rand"
	"testing"
)

// mulVecRowsRef is the naive one-row-at-a-time kernel the production
// mulVecRows replaced; it survives here as the bit-level reference.
func mulVecRowsRef(a *CSRMatrix, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			sum += a.Val[k] * x[a.Col[k]]
		}
		y[i] = sum
	}
}

// raggedCSR builds an n-row matrix directly in CSR form (no graph, so
// rows may be empty): row lengths are drawn from lens, cycling, with
// random columns and values.
func raggedCSR(n int, lens []int, seed int64) *CSRMatrix {
	rng := rand.New(rand.NewSource(seed))
	a := &CSRMatrix{N: n, Ptr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		l := lens[rng.Intn(len(lens))]
		for k := 0; k < l; k++ {
			a.Col = append(a.Col, int32(rng.Intn(n)))
			a.Val = append(a.Val, rng.NormFloat64()*math.Exp(rng.NormFloat64()*4))
		}
		a.Ptr[i+1] = int32(len(a.Col))
	}
	return a
}

func checkRowsBitIdentical(t *testing.T, a *CSRMatrix, x []float64, lo, hi int) {
	t.Helper()
	const poison = -12345.5
	got, want := make([]float64, a.N), make([]float64, a.N)
	Fill(got, poison)
	Fill(want, poison)
	a.mulVecRows(x, got, lo, hi)
	mulVecRowsRef(a, x, want, lo, hi)
	for i := range want { // also pins that rows outside [lo,hi) stay untouched
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d [%d,%d): y[%d]=%x, reference %x", a.N, lo, hi, i, got[i], want[i])
		}
	}
}

// TestMulVecRowsMatchesReference pins the row-interleaved kernel to the
// naive loop bit for bit over the shapes that exercise every branch:
// empty rows, single-entry rows, ragged neighbours (either row of a
// pair longer), odd N, and odd sub-ranges.
func TestMulVecRowsMatchesReference(t *testing.T) {
	shapes := [][]int{
		{0},           // all rows empty
		{1},           // single-entry rows
		{0, 1},        // empty next to single
		{0, 1, 2, 17}, // ragged, short next to long in both orders
		{13, 14, 15},  // FEM-like
		{0, 0, 0, 40}, // mostly empty with long stragglers
	}
	for si, lens := range shapes {
		for _, n := range []int{1, 2, 3, 8, 257, 1000, 1001} {
			a := raggedCSR(n, lens, int64(100*si+n))
			x := randVec(n, int64(si))
			checkRowsBitIdentical(t, a, x, 0, n)
			rng := rand.New(rand.NewSource(int64(n)))
			for trial := 0; trial < 20; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				checkRowsBitIdentical(t, a, x, lo, hi)
			}
		}
	}
}

// TestMulVecRowsParOpsBlocks walks the exact [lo,hi) blocks ParOps.MulVec
// issues (mulVecRowGrain rows, ragged last block) on an odd-sized matrix.
func TestMulVecRowsParOpsBlocks(t *testing.T) {
	n := 5*mulVecRowGrain + 77
	a := raggedCSR(n, []int{0, 1, 5, 12, 13, 30}, 9)
	x := randVec(n, 10)
	for lo := 0; lo < n; lo += mulVecRowGrain {
		checkRowsBitIdentical(t, a, x, lo, min(lo+mulVecRowGrain, n))
	}
	want := make([]float64, n)
	mulVecRowsRef(a, x, want, 0, n)
	withPools(t, func(t *testing.T, w int, par *ParOps) {
		got := make([]float64, n)
		par.MulVec(a, x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: y[%d]=%x, reference %x", w, i, got[i], want[i])
			}
		}
	})
}

// BenchmarkSpMVL2 is the L2-resident benchmark: ~18k nnz at ~13 per row, the size one
// fluid_sync rank multiplies ~800 times per step. BenchmarkSpMV above is
// DRAM-sized and cannot see a kernel change.
func BenchmarkSpMVL2(b *testing.B) {
	a := raggedCSR(1400, []int{11, 12, 13, 14, 15}, 1)
	x := randVec(a.N, 2)
	y := make([]float64, a.N)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"interleaved", func() { a.mulVecRows(x, y, 0, a.N) }},
		{"reference", func() { mulVecRowsRef(a, x, y, 0, a.N) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.NNZ()), "ns/nnz")
		})
	}
}
