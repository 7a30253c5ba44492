package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// laplacian1D builds the tridiagonal [-1, 2, -1] matrix of size n (SPD).
func laplacian1D(n int) *CSRMatrix {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	g := graph.FromEdges(n, edges)
	a := NewCSRFromGraph(g)
	for i := 0; i < n; i++ {
		a.Add(int32(i), int32(i), 2)
		if i > 0 {
			a.Add(int32(i), int32(i-1), -1)
		}
		if i < n-1 {
			a.Add(int32(i), int32(i+1), -1)
		}
	}
	return a
}

// randomDiagDominant builds a random nonsymmetric strictly diagonally
// dominant matrix on a random sparsity pattern (guaranteed solvable).
func randomDiagDominant(n int, seed int64) *CSRMatrix {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 0; i < n*4; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	g := graph.FromEdges(n, edges)
	a := NewCSRFromGraph(g)
	for i := int32(0); i < int32(n); i++ {
		rowAbs := 0.0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if a.Col[k] == i {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Val[k] = v
			rowAbs += math.Abs(v)
		}
		a.Add(i, i, rowAbs+1+rng.Float64())
	}
	return a
}

func TestCSRPattern(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	a := NewCSRFromGraph(g)
	if a.NNZ() != 4+2*3 {
		t.Fatalf("nnz=%d, want 10", a.NNZ())
	}
	// Columns ascending within each row, diagonal present.
	for i := 0; i < a.N; i++ {
		hasDiag := false
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if k > a.Ptr[i] && a.Col[k] <= a.Col[k-1] {
				t.Fatalf("row %d columns not ascending", i)
			}
			if a.Col[k] == int32(i) {
				hasDiag = true
			}
		}
		if !hasDiag {
			t.Fatalf("row %d missing diagonal", i)
		}
	}
}

func TestFindAndAdd(t *testing.T) {
	a := laplacian1D(5)
	if a.Find(0, 4) != -1 {
		t.Fatal("entry (0,4) should be outside the pattern")
	}
	if k := a.Find(2, 3); k < 0 || a.Val[k] != -1 {
		t.Fatalf("entry (2,3) = %v", a.Val)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add outside pattern must panic")
		}
	}()
	a.Add(0, 4, 1)
}

func TestMulVecTridiag(t *testing.T) {
	a := laplacian1D(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(x, y)
	want := []float64{0, 0, 0, 5} // 2*1-2, -1+4-3, -2+6-4, -3+8
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d]=%g, want %g", i, y[i], want[i])
		}
	}
}

func TestDirichletRow(t *testing.T) {
	a := laplacian1D(4)
	a.SetDirichletRow(0)
	x := []float64{7, 1, 1, 1}
	y := make([]float64, 4)
	a.MulVec(x, y)
	if y[0] != 7 {
		t.Fatalf("dirichlet row should act as identity: y[0]=%g", y[0])
	}
}

func TestDiagonal(t *testing.T) {
	a := laplacian1D(5)
	d := make([]float64, 5)
	a.Diagonal(d)
	for i, v := range d {
		if v != 2 {
			t.Fatalf("diag[%d]=%g, want 2", i, v)
		}
	}
}

func TestVectorKernels(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("dot=%g", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("axpy result %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 {
		t.Fatalf("scale result %v", y)
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("norm2")
	}
	Fill(x, 9)
	if x[1] != 9 {
		t.Fatal("fill")
	}
}

// jacobi builds a Jacobi preconditioner for diagonal d the way the
// solvers do: a persistent inverse diagonal behind JacobiApplier.
func jacobi(d []float64) func(r, z []float64) {
	inv := make([]float64, len(d))
	JacobiInvInto(d, inv)
	return JacobiApplier(inv)
}

// identity leaves the residual unpreconditioned.
func identity(r, z []float64) { copy(z, r) }

func TestPCGLaplacian(t *testing.T) {
	n := 64
	a := laplacian1D(n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i) / 5)
	}
	b := make([]float64, n)
	a.MulVec(xTrue, b)
	x := make([]float64, n)
	d := make([]float64, n)
	a.Diagonal(d)
	stats, err := PCGWithWorkspace(OpsFromMatrix(a), jacobi(d), b, x, 1e-10, 500, NewKrylovWorkspace(len(x)))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("PCG did not converge: %+v", stats)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d]=%g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestPCGExactInNIterations(t *testing.T) {
	// CG converges in at most n iterations in exact arithmetic; allow a
	// margin for floating point.
	n := 32
	a := laplacian1D(n)
	b := make([]float64, n)
	b[n/2] = 1
	x := make([]float64, n)
	stats, err := PCGWithWorkspace(OpsFromMatrix(a), identity, b, x, 1e-12, 3*n, NewKrylovWorkspace(len(x)))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("not converged in %d iters, residual %g", stats.Iterations, stats.Residual)
	}
}

func TestBiCGSTABRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		n := 80
		a := randomDiagDominant(n, seed)
		xTrue := make([]float64, n)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := range xTrue {
			xTrue[i] = rng.Float64()*2 - 1
		}
		b := make([]float64, n)
		a.MulVec(xTrue, b)
		x := make([]float64, n)
		d := make([]float64, n)
		a.Diagonal(d)
		stats, err := BiCGSTABWithWorkspace(OpsFromMatrix(a), jacobi(d), b, x, 1e-10, 500, NewKrylovWorkspace(len(x)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !stats.Converged {
			t.Fatalf("seed %d: not converged: %+v", seed, stats)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-5 {
				t.Fatalf("seed %d: x[%d]=%g, want %g", seed, i, x[i], xTrue[i])
			}
		}
	}
}

func TestSolversZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	b := make([]float64, 10)
	x := make([]float64, 10)
	stats, err := PCGWithWorkspace(OpsFromMatrix(a), identity, b, x, 1e-10, 100, NewKrylovWorkspace(len(x)))
	if err != nil || !stats.Converged {
		t.Fatalf("PCG zero rhs: %+v %v", stats, err)
	}
	stats, err = BiCGSTABWithWorkspace(OpsFromMatrix(a), identity, b, x, 1e-10, 100, NewKrylovWorkspace(len(x)))
	if err != nil || !stats.Converged {
		t.Fatalf("BiCGSTAB zero rhs: %+v %v", stats, err)
	}
	if Norm2(x) != 0 {
		t.Fatalf("solution should stay zero, got %v", x)
	}
}

// Property: for random SPD (diag-dominant symmetric) systems, PCG residual
// reported matches the true residual.
func TestPCGResidualQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 24
		a := laplacian1D(n)
		rng := rand.New(rand.NewSource(seed))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()
		}
		x := make([]float64, n)
		stats, err := PCGWithWorkspace(OpsFromMatrix(a), identity, b, x, 1e-9, 200, NewKrylovWorkspace(len(x)))
		if err != nil || !stats.Converged {
			return false
		}
		r := make([]float64, n)
		a.MulVec(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		return Norm2(r)/Norm2(b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
