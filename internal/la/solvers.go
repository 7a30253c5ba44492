package la

import (
	"errors"
	"math"
)

// Ops abstracts the vector-space operations a Krylov solver needs, so the
// same implementation runs serially (tests) and distributed (each MPI rank
// passes a MatVec that performs halo exchange and a Dot that reduces over
// owned entries with an allreduce).
type Ops struct {
	N      int
	MatVec func(x, y []float64)         // y = A x
	Dot    func(x, y []float64) float64 // global inner product
	// Dot2 returns (Dot(x1, y1), Dot(x2, y2)), bit for bit, from one
	// reduction: a distributed Dot2 makes one allreduce where two Dots
	// make two. The solvers pair the products an iteration needs at the
	// same point, so every iterate keeps its bits.
	Dot2 func(x1, y1, x2, y2 []float64) (float64, float64)

	// Vec optionally parallelizes the solver-internal vector updates
	// (axpys and fused recurrences) over a worker pool. nil runs them
	// serially; either way the updates are element-wise with disjoint
	// writes, so the iterates are bit-identical.
	Vec *ParOps
}

// OpsFromMatrix returns serial Ops for an assembled matrix.
func OpsFromMatrix(a *CSRMatrix) Ops {
	return Ops{N: a.N, MatVec: a.MulVec, Dot: Dot, Dot2: Dot2}
}

// SolveStats reports the outcome of an iterative solve.
type SolveStats struct {
	Iterations int
	Residual   float64 // final relative residual ||r|| / ||b||
	Converged  bool
}

// ErrBreakdown is returned when a Krylov recurrence hits a zero pivot.
var ErrBreakdown = errors.New("la: krylov breakdown")

// ErrNonFinite is returned when a solver's residual goes NaN or Inf —
// the iterate has blown up and every further operation only launders
// garbage. The check reuses the residual norm each iteration already
// computes, so healthy solves pay two float comparisons and allocate
// nothing.
var ErrNonFinite = errors.New("la: non-finite residual")

// nonFinite reports NaN or ±Inf. (x != x) catches NaN; the abs compare
// catches Inf without allocating.
func nonFinite(x float64) bool {
	return x != x || math.IsInf(x, 0)
}

// JacobiInvInto fills inv with the inverse diagonal the Jacobi
// preconditioner applies (zero entries pass through unscaled). It lets a
// solver refresh a persistent preconditioner in place each step instead
// of allocating a new one.
func JacobiInvInto(diag, inv []float64) {
	for i, d := range diag {
		if d != 0 {
			inv[i] = 1 / d
		} else {
			inv[i] = 1
		}
	}
}

// JacobiApplier returns the application closure z = inv ⊙ r over a
// caller-owned inverse diagonal; refreshing inv in place (JacobiInvInto)
// retargets the same closure at a new matrix diagonal with no
// allocation.
func JacobiApplier(inv []float64) func(r, z []float64) {
	return func(r, z []float64) {
		for i := range r {
			z[i] = r[i] * inv[i]
		}
	}
}

// PCGWithWorkspace solves A x = b with preconditioned conjugate
// gradients over caller-owned scratch; A must be symmetric positive
// definite. x holds the initial guess on entry and the solution on exit.
// With a reused workspace the steady-state solve allocates nothing, and
// the iterates are bit-identical to a fresh workspace's (every scratch
// vector is fully written before it is read).
func PCGWithWorkspace(ops Ops, precond func(r, z []float64), b, x []float64, tol float64, maxIter int, ws *KrylovWorkspace) (SolveStats, error) {
	n := ops.N
	ws.reserve(n)
	ws.attach(b, x)
	defer ws.detach()
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap

	ops.MatVec(x, r)
	ops.Vec.Range(n, ws.resid)
	bnorm := math.Sqrt(ops.Dot(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	precond(r, z)
	copy(p, z)
	// r·r is reduced together with r·z: r does not change between the
	// two, so the pair costs one reduction instead of two.
	rz, rr := ops.Dot2(r, z, r, r)
	var stats SolveStats
	for k := 0; k < maxIter; k++ {
		stats.Residual = math.Sqrt(rr) / bnorm
		if nonFinite(stats.Residual) {
			return stats, ErrNonFinite
		}
		if stats.Residual <= tol {
			stats.Converged = true
			return stats, nil
		}
		ops.MatVec(p, ap)
		pap := ops.Dot(p, ap)
		if pap == 0 {
			return stats, ErrBreakdown
		}
		alpha := rz / pap
		ops.Vec.Axpy(alpha, p, x)
		ops.Vec.Axpy(-alpha, ap, r)
		precond(r, z)
		var rzNew float64
		rzNew, rr = ops.Dot2(r, z, r, r)
		ws.beta = rzNew / rz
		rz = rzNew
		ops.Vec.Range(n, ws.pcgP)
		stats.Iterations = k + 1
	}
	stats.Residual = math.Sqrt(rr) / bnorm
	if nonFinite(stats.Residual) {
		return stats, ErrNonFinite
	}
	stats.Converged = stats.Residual <= tol
	return stats, nil
}

// BiCGSTABWithWorkspace solves A x = b for general (nonsymmetric) A with
// the stabilized bi-conjugate gradient method and a right preconditioner,
// over caller-owned scratch (see PCGWithWorkspace for the allocation and
// bit-identity contract).
func BiCGSTABWithWorkspace(ops Ops, precond func(r, z []float64), b, x []float64, tol float64, maxIter int, ws *KrylovWorkspace) (SolveStats, error) {
	n := ops.N
	ws.reserve(n)
	ws.attach(b, x)
	defer ws.detach()
	r, rhat, p, v := ws.r, ws.rhat, ws.p, ws.v
	s, t, phat, shat := ws.s, ws.t, ws.phat, ws.shat

	ops.MatVec(x, r)
	ops.Vec.Range(n, ws.resid)
	copy(rhat, r)
	bnorm := math.Sqrt(ops.Dot(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	var stats SolveStats
	for k := 0; k < maxIter; k++ {
		// r·r and r̂·r in one reduction (r̂·r is wasted only on the
		// iteration that converges).
		rr, rhoNew := ops.Dot2(r, r, rhat, r)
		stats.Residual = math.Sqrt(rr) / bnorm
		if nonFinite(stats.Residual) {
			return stats, ErrNonFinite
		}
		if stats.Residual <= tol {
			stats.Converged = true
			return stats, nil
		}
		if rhoNew == 0 {
			return stats, ErrBreakdown
		}
		if k == 0 {
			copy(p, r)
		} else {
			ws.beta = (rhoNew / rho) * (alpha / omega)
			ws.omega = omega
			ops.Vec.Range(n, ws.bicgP)
		}
		rho = rhoNew
		precond(p, phat)
		ops.MatVec(phat, v)
		den := ops.Dot(rhat, v)
		if den == 0 {
			return stats, ErrBreakdown
		}
		alpha = rho / den
		ws.alpha = alpha
		ops.Vec.Range(n, ws.bicgS)
		snorm := math.Sqrt(ops.Dot(s, s))
		if nonFinite(snorm) {
			stats.Residual = snorm / bnorm
			return stats, ErrNonFinite
		}
		if snorm/bnorm <= tol {
			ops.Vec.Axpy(alpha, phat, x)
			stats.Iterations = k + 1
			stats.Residual = snorm / bnorm
			stats.Converged = true
			return stats, nil
		}
		precond(s, shat)
		ops.MatVec(shat, t)
		tt, ts := ops.Dot2(t, t, t, s)
		if tt == 0 {
			return stats, ErrBreakdown
		}
		omega = ts / tt
		if omega == 0 {
			return stats, ErrBreakdown
		}
		ws.omega = omega
		ops.Vec.Range(n, ws.bicgX)
		ops.Vec.Range(n, ws.bicgR)
		stats.Iterations = k + 1
	}
	rnorm := math.Sqrt(ops.Dot(r, r))
	stats.Residual = rnorm / bnorm
	if nonFinite(stats.Residual) {
		return stats, ErrNonFinite
	}
	stats.Converged = stats.Residual <= tol
	return stats, nil
}
