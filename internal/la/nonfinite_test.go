package la

import (
	"errors"
	"math"
	"testing"
)

// TestSolversRejectNonFiniteRHS: a NaN or Inf anywhere in the right-hand
// side must surface as ErrNonFinite within the first iteration instead
// of iterating MaxIter times on garbage (NaN never satisfies a
// tolerance comparison, so without the guard the solvers spin to the
// iteration cap and report a meaningless "diverged-but-converged=false").
func TestSolversRejectNonFiniteRHS(t *testing.T) {
	a := laplacian1D(16)
	for _, poison := range []float64{math.NaN(), math.Inf(1)} {
		b := make([]float64, 16)
		b[0] = 1
		b[7] = poison
		x := make([]float64, 16)
		stats, err := PCGWithWorkspace(OpsFromMatrix(a), identity, b, x, 1e-10, 100, NewKrylovWorkspace(len(x)))
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("PCG(b[7]=%g): err = %v, want ErrNonFinite", poison, err)
		}
		if stats.Iterations > 1 {
			t.Fatalf("PCG burned %d iterations on non-finite input", stats.Iterations)
		}
		x = make([]float64, 16)
		if _, err := BiCGSTABWithWorkspace(OpsFromMatrix(a), identity, b, x, 1e-10, 100, NewKrylovWorkspace(len(x))); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("BiCGSTAB(b[7]=%g): err = %v, want ErrNonFinite", poison, err)
		}
	}
}

// TestSolversRejectNonFiniteInitialGuess: poison arriving through x0
// (the solver's warm start — exactly how NaN state from a previous step
// propagates) is caught the same way.
func TestSolversRejectNonFiniteInitialGuess(t *testing.T) {
	a := laplacian1D(16)
	b := make([]float64, 16)
	b[0] = 1
	x := make([]float64, 16)
	x[3] = math.NaN()
	if _, err := PCGWithWorkspace(OpsFromMatrix(a), identity, b, x, 1e-10, 100, NewKrylovWorkspace(len(x))); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("PCG NaN x0: err = %v, want ErrNonFinite", err)
	}
}
