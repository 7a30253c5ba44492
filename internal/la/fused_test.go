package la

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tasking"
)

// edgeValue draws the values the fused-reduction and zero-dropping pins
// care about: ordinary normals, signed zeros, subnormals and the
// smallest normal, with magnitudes bounded so no product or sum of a
// few thousand terms overflows.
func edgeValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(1000)-500) * math.SmallestNonzeroFloat64
	case 3:
		return math.Copysign(0x1p-1022, rng.NormFloat64())
	case 4:
		return rng.NormFloat64() * 1e150
	default:
		return rng.NormFloat64()
	}
}

func edgeVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = edgeValue(rng)
	}
	return x
}

// chunkEdgeMask sets runs of width 2w centred on every reduction chunk
// boundary, so each run starts in one chunk and ends in the next.
func chunkEdgeMask(n, w int) []bool {
	mask := make([]bool, n)
	for e := reductionChunk; e-w < n; e += reductionChunk {
		for i := max(e-w, 0); i < min(e+w, n); i++ {
			mask[i] = true
		}
	}
	return mask
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMaskedDot2MatchesTwoMaskedDots pins ParOps.MaskedDot2 to two
// MaskedDotChunked references bit for bit: on a nil and a pool-less
// ParOps and on pools of 1–4 workers, at lengths around one and two
// reduction chunks, with masks whose runs cross chunk edges.
func TestMaskedDot2MatchesTwoMaskedDots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type layer struct {
		name string
		par  *ParOps
	}
	layers := []layer{{"nil", nil}, {"serial", NewParOps(nil)}}
	for w := 1; w <= 4; w++ {
		pool := tasking.NewPool(w)
		defer pool.Close()
		layers = append(layers, layer{"pool" + string(rune('0'+w)), NewParOps(pool)})
	}
	for _, n := range []int{1, 4095, 4096, 4097, 8191, 8192, 8193, 12300} {
		x1, y1, x2, y2 := edgeVec(rng, n), edgeVec(rng, n), edgeVec(rng, n), edgeVec(rng, n)
		random := make([]bool, n)
		for i := range random {
			random[i] = rng.Intn(3) != 0
		}
		masks := map[string][]bool{
			"all":    slices.Repeat([]bool{true}, n),
			"none":   make([]bool, n),
			"random": random,
			"edges":  chunkEdgeMask(n, 150),
			"wide":   chunkEdgeMask(n, 2100),
		}
		for mname, mask := range masks {
			wa, wb := MaskedDotChunked(mask, x1, y1), MaskedDotChunked(mask, x2, y2)
			for _, l := range layers {
				a, b := l.par.MaskedDot2(mask, x1, y1, x2, y2)
				if !sameBits(a, wa) || !sameBits(b, wb) {
					t.Fatalf("n=%d mask=%s %s: MaskedDot2 = (%x, %x), two MaskedDotChunked = (%x, %x)", n, mname, l.name, a, b, wa, wb)
				}
			}
		}
	}
}

// countReductions wraps ops so every one- and two-slot allreduce counts
// as one reduction.
func countReductions(ops Ops, n *int) Ops {
	one, two := ops.Allreduce, ops.Allreduce2
	ops.Allreduce = func(v float64) float64 { *n++; return one(v) }
	ops.Allreduce2 = func(a, b float64) (float64, float64) { *n++; return two(a, b) }
	return ops
}

// TestKrylovReductionCounts pins the synchronisations of each solver
// exactly: PCG makes 2 set-up reductions (b·b and the fused {r·z, r·r})
// and 2 per iteration (p·Ap and the fused {r·z, r·r}); BiCGSTAB makes 1
// set-up reduction (b·b), 4 per full iteration ({r·r, r̂·r}, r̂·v, s·s,
// {t·t, t·s}) and 1 for the final residual of a capped solve.
func TestKrylovReductionCounts(t *testing.T) {
	const n = 300
	b := solverRHS(n, 21)
	x := make([]float64, n)
	ws := NewKrylovWorkspace(n)
	spd, skew := chainMatrix(n), skewChainMatrix(n)
	d := make([]float64, n)

	spd.Diagonal(d)
	for _, k := range []int{0, 1, 5, 17} {
		count := 0
		Fill(x, 0)
		st, err := PCGWithWorkspace(countReductions(OpsFromMatrix(spd), &count), jacobi(d), b, x, 0, k, ws)
		if err != nil || st.Iterations != k {
			t.Fatalf("PCG cap %d: %+v, %v", k, st, err)
		}
		if count != 2+2*k {
			t.Errorf("PCG, %d iterations: %d reductions, want %d", k, count, 2+2*k)
		}
	}
	count := 0
	Fill(x, 0)
	st, err := PCGWithWorkspace(countReductions(OpsFromMatrix(spd), &count), jacobi(d), b, x, 1e-10, 500, ws)
	if err != nil || !st.Converged {
		t.Fatalf("PCG: %+v, %v", st, err)
	}
	if count != 2+2*st.Iterations {
		t.Errorf("converged PCG, %d iterations: %d reductions, want %d", st.Iterations, count, 2+2*st.Iterations)
	}

	skew.Diagonal(d)
	for _, k := range []int{1, 4, 9} {
		count := 0
		Fill(x, 0)
		st, err := BiCGSTABWithWorkspace(countReductions(OpsFromMatrix(skew), &count), jacobi(d), b, x, 0, k, ws)
		if err != nil || st.Iterations != k {
			t.Fatalf("BiCGSTAB cap %d: %+v, %v", k, st, err)
		}
		if count != 2+4*k {
			t.Errorf("BiCGSTAB, %d iterations: %d reductions, want %d", k, count, 2+4*k)
		}
	}
}

// zeroyCSR builds an n-row matrix with sorted unique columns whose rows
// cycle through the shapes DropZeros must handle: ragged rows with
// scattered ±0 values, all-zero rows, diagonal-only rows (the other
// entries ±0, as symmetric Dirichlet leaves them) and empty rows. A
// diagonal is never −0, so Diagonal reads the same bits before and
// after the drop.
func zeroyCSR(n int, rng *rand.Rand) *CSRMatrix {
	a := &CSRMatrix{N: n, Ptr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		cols := []int32{int32(i)}
		for k := rng.Intn(12); k > 0; k-- {
			cols = append(cols, int32(rng.Intn(n)))
		}
		slices.Sort(cols)
		cols = slices.Compact(cols)
		shape := i % 4
		if shape == 3 {
			cols = nil
		}
		for _, j := range cols {
			v := edgeValue(rng)
			if shape == 1 || (shape == 2 && j != int32(i)) {
				v = math.Copysign(0, float64(rng.Intn(2))-0.5)
			} else if shape == 2 {
				v = 1 + rng.Float64()
			}
			if j == int32(i) && v == 0 {
				v = 0 // never a −0 diagonal
			}
			a.Col = append(a.Col, j)
			a.Val = append(a.Val, v)
		}
		a.Ptr[i+1] = int32(len(a.Col))
	}
	return a
}

// TestDropZerosKeepsBits: the pruned matrix stores no zero, its
// pattern is exact-size and new, the matrix it shared its pattern with
// keeps the old one, and MulVec (serial and row-blocked on a pool),
// Diagonal and Find give the unpruned matrix's bits on finite x.
func TestDropZerosKeepsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 9000
	a := zeroyCSR(n, rng)
	ptr0, col0 := slices.Clone(a.Ptr), slices.Clone(a.Col)
	l := &CSRMatrix{N: n, Ptr: a.Ptr, Col: a.Col, Val: slices.Clone(a.Val)}
	l.DropZeros()

	if !slices.Equal(a.Ptr, ptr0) || !slices.Equal(a.Col, col0) {
		t.Fatal("DropZeros changed the shared pattern")
	}
	if &l.Ptr[0] == &a.Ptr[0] || &l.Col[0] == &a.Col[0] {
		t.Fatal("the pruned matrix still aliases the shared pattern")
	}
	if len(l.Ptr) != n+1 || cap(l.Ptr) != n+1 || cap(l.Col) != len(l.Col) || len(l.Col) != len(l.Val) || int(l.Ptr[n]) != len(l.Val) {
		t.Fatalf("pattern not exact-size: len/cap Ptr %d/%d, Col %d/%d, Val %d", len(l.Ptr), cap(l.Ptr), len(l.Col), cap(l.Col), len(l.Val))
	}
	dropped := 0
	for _, v := range a.Val {
		if v == 0 {
			dropped++
		}
	}
	if dropped == 0 || l.NNZ() != a.NNZ()-dropped || slices.Contains(l.Val, 0) {
		t.Fatalf("nnz %d → %d, %d zeros stored", a.NNZ(), l.NNZ(), dropped)
	}
	for i := int32(0); i < int32(n); i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			j, kl := a.Col[k], l.Find(i, a.Col[k])
			if (kl >= 0) != (a.Val[k] != 0) || (kl >= 0 && !sameBits(l.Val[kl], a.Val[k])) {
				t.Fatalf("Find(%d,%d) = %d in the pruned matrix; unpruned value %x", i, j, kl, a.Val[k])
			}
		}
	}

	da, dl := make([]float64, n), make([]float64, n)
	a.Diagonal(da)
	l.Diagonal(dl)
	for i := range da {
		if !sameBits(da[i], dl[i]) {
			t.Fatalf("Diagonal[%d] = %x, unpruned %x", i, dl[i], da[i])
		}
	}

	pool := tasking.NewPool(3)
	defer pool.Close()
	par := NewParOps(pool)
	want, got, gotPar := make([]float64, n), make([]float64, n), make([]float64, n)
	for trial := 0; trial < 3; trial++ {
		x := edgeVec(rng, n)
		a.MulVec(x, want)
		l.MulVec(x, got)
		par.MulVec(l, x, gotPar)
		for i := range want {
			if !sameBits(got[i], want[i]) || !sameBits(gotPar[i], want[i]) {
				t.Fatalf("trial %d: y[%d] = %x (serial), %x (pool), unpruned %x", trial, i, got[i], gotPar[i], want[i])
			}
		}
	}
}

// TestDropZerosNonFiniteStillFails: on a chain with symmetric
// zero-Dirichlet rows, a NaN or Inf in the initial guess (at a Dirichlet
// node, whose column the drop empties, or elsewhere) or in b still ends
// PCG in ErrNonFinite, pruned or not.
func TestDropZerosNonFiniteStillFails(t *testing.T) {
	const n = 60
	dir := map[int32]bool{0: true, 17: true, 41: true}
	full := chainMatrix(n)
	for i := int32(0); i < n; i++ {
		for k := full.Ptr[i]; k < full.Ptr[i+1]; k++ {
			if j := full.Col[k]; j != i && (dir[i] || dir[j]) {
				full.Val[k] = 0
			}
		}
	}
	pruned := &CSRMatrix{N: n, Ptr: full.Ptr, Col: full.Col, Val: slices.Clone(full.Val)}
	pruned.DropZeros()
	if pruned.NNZ() >= full.NNZ() {
		t.Fatalf("nothing dropped: nnz %d → %d", full.NNZ(), pruned.NNZ())
	}
	d := make([]float64, n)
	full.Diagonal(d)
	for _, bad := range []struct {
		at     int
		v      float64
		inRHS  bool
		reason string
	}{
		{17, math.NaN(), false, "NaN guess at a Dirichlet node"},
		{41, math.Inf(1), false, "+Inf guess at a Dirichlet node"},
		{5, math.NaN(), false, "NaN guess at an interior node"},
		{17, math.Inf(-1), true, "-Inf in b at a Dirichlet node"},
	} {
		for name, a := range map[string]*CSRMatrix{"unpruned": full, "pruned": pruned} {
			b, x := solverRHS(n, 4), make([]float64, n)
			if bad.inRHS {
				b[bad.at] = bad.v
			} else {
				x[bad.at] = bad.v
			}
			if _, err := PCGWithWorkspace(OpsFromMatrix(a), jacobi(d), b, x, 1e-10, 100, NewKrylovWorkspace(n)); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s, %s: err = %v, want ErrNonFinite", bad.reason, name, err)
			}
		}
	}
}

// FuzzFusedDots: on random lengths, masks and values (±0, subnormals,
// the smallest normal, large and ordinary normals), MaskedDot2 — serial
// and on a 3-worker pool — equals two MaskedDotChunked calls bit for
// bit, and a matrix built from the same values keeps its MulVec bits on
// finite x once its zeros are dropped.
func FuzzFusedDots(f *testing.F) {
	f.Add(int64(1), uint16(4097), []byte{200, 3, 17})
	f.Add(int64(2), uint16(8192), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1})
	f.Add(int64(3), uint16(5), []byte{})
	pool := tasking.NewPool(3)
	f.Cleanup(pool.Close)
	par, serial := NewParOps(pool), NewParOps(nil)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, runs []byte) {
		n := int(size) % 12289
		rng := rand.New(rand.NewSource(seed))
		x1, y1, x2, y2 := edgeVec(rng, n), edgeVec(rng, n), edgeVec(rng, n), edgeVec(rng, n)
		// Alternating run lengths, 32 entries per unit, so runs cross
		// chunk edges; past the bytes the mask alternates singly.
		mask := make([]bool, n)
		on, i := false, 0
		for _, r := range runs {
			for k := 0; k < 32*int(r) && i < n; k++ {
				mask[i] = on
				i++
			}
			on = !on
		}
		for ; i < n; i++ {
			mask[i] = i%2 == 0
		}
		wa, wb := MaskedDotChunked(mask, x1, y1), MaskedDotChunked(mask, x2, y2)
		for name, o := range map[string]*ParOps{"serial": serial, "pool": par} {
			if a, b := o.MaskedDot2(mask, x1, y1, x2, y2); !sameBits(a, wa) || !sameBits(b, wb) {
				t.Fatalf("n=%d %s: MaskedDot2 = (%x, %x), want (%x, %x)", n, name, a, b, wa, wb)
			}
		}

		m := zeroyCSR(min(n, 700)+1, rng)
		pruned := &CSRMatrix{N: m.N, Ptr: m.Ptr, Col: m.Col, Val: slices.Clone(m.Val)}
		pruned.DropZeros()
		x := edgeVec(rng, m.N)
		want, got := make([]float64, m.N), make([]float64, m.N)
		m.MulVec(x, want)
		pruned.MulVec(x, got)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d: pruned y[%d] = %x, want %x", m.N, i, got[i], want[i])
			}
		}
	})
}
