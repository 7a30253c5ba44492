package la

import (
	"errors"
	"math"
	"slices"
)

// Ops abstracts the vector-space operations a Krylov solver needs, so the
// same implementation runs serially (tests) and distributed (each MPI rank
// passes a MatVec that performs halo exchange, its owned-row mask and its
// allreduce). The solvers form every inner product themselves: the owned
// rows' partial sum in MaskedDotChunked's fixed chunk order, fused into
// the vector update that produces its operands, then one allreduce.
type Ops struct {
	N      int
	MatVec func(x, y []float64) // y = A x
	// Owned marks the N rows whose entries enter the inner products: a
	// rank's owned rows, so each shared row counts once over all ranks.
	Owned []bool
	// Allreduce sums one partial over all ranks. Allreduce2 sums two in
	// one reduction, each equal to its Allreduce bit for bit; the solvers
	// pair the products an iteration needs at the same point.
	Allreduce  func(float64) float64
	Allreduce2 func(a, b float64) (float64, float64)

	// Vec optionally runs the solvers' passes over a worker pool. nil
	// runs them serially; either way every iterate is bit-identical.
	Vec *ParOps
}

// OpsFromMatrix returns serial Ops for an assembled matrix: every row
// owned, one rank's allreduce.
func OpsFromMatrix(a *CSRMatrix) Ops {
	return Ops{N: a.N, MatVec: a.MulVec, Owned: slices.Repeat([]bool{true}, a.N), Allreduce: oneRank, Allreduce2: oneRank2}
}

func oneRank(v float64) float64                { return v }
func oneRank2(a, b float64) (float64, float64) { return a, b }

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
//
// precond must be a diagonal scaling, z[i] = d[i]*r[i] (JacobiApplier,
// or the identity): the solver applies it once, to a ones vector, and
// scales by d inside its passes. After its SpMV an iteration makes three
// passes: p·Ap; x += αp, r -= α·Ap, z = d⊙r with {r·z, r·r}; p = z + βp.
//
// With a reused workspace the steady-state solve allocates nothing, and
// the iterates are bit-identical to a fresh workspace's (every scratch
// vector is fully written before it is read).
func PCGWithWorkspace(ops Ops, precond func(r, z []float64), b, x []float64, tol float64, maxIter int, ws *KrylovWorkspace) (SolveStats, error) {
	n, par := ops.N, ops.Vec
	ws.begin(ops, precond, b, x)
	defer ws.detach()

	ops.MatVec(x, ws.r)
	bnorm := math.Sqrt(ops.Allreduce(par.MaskedDot(ops.Owned, b, b)))
	if bnorm == 0 {
		bnorm = 1
	}
	// r·r is reduced together with r·z: r does not change between the
	// two, so the pair costs one reduction instead of two.
	rz, rr := ops.Allreduce2(par.reduce2(n, ws.pcgInit))
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
		ops.MatVec(ws.p, ws.ap)
		pap := ops.Allreduce(par.MaskedDot(ops.Owned, ws.p, ws.ap))
		if pap == 0 {
			return stats, ErrBreakdown
		}
		ws.alpha = rz / pap
		var rzNew float64
		rzNew, rr = ops.Allreduce2(par.reduce2(n, ws.pcgStep))
		ws.beta = rzNew / rz
		rz = rzNew
		par.Range(n, ws.pcgP)
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
// over caller-owned scratch (see PCGWithWorkspace for the preconditioner,
// allocation and bit-identity contract). An iteration makes five passes
// around its two SpMVs: the p update with p̂ = d⊙p; r̂·v; s = r - αv,
// ŝ = d⊙s with s·s; {t·t, t·s}; the x and r updates with the next
// iteration's {r·r, r̂·r}.
func BiCGSTABWithWorkspace(ops Ops, precond func(r, z []float64), b, x []float64, tol float64, maxIter int, ws *KrylovWorkspace) (SolveStats, error) {
	n, par := ops.N, ops.Vec
	ws.begin(ops, precond, b, x)
	defer ws.detach()

	ops.MatVec(x, ws.r)
	bnorm := math.Sqrt(ops.Allreduce(par.MaskedDot(ops.Owned, b, b)))
	if bnorm == 0 {
		bnorm = 1
	}
	// Owned partials of r·r and r̂·r, reduced in one allreduce at the top
	// of the iteration that reads them (r̂·r is wasted only on the
	// iteration that converges).
	rrLoc, rhoLoc := par.reduce2(n, ws.bicgInit)
	rho, alpha, omega := 1.0, 1.0, 1.0
	var stats SolveStats
	for k := 0; k < maxIter; k++ {
		rr, rhoNew := ops.Allreduce2(rrLoc, rhoLoc)
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
		ws.first = k == 0
		if !ws.first {
			ws.beta = (rhoNew / rho) * (alpha / omega)
			ws.omega = omega
		}
		par.Range(n, ws.bicgP)
		rho = rhoNew
		ops.MatVec(ws.phat, ws.v)
		den := ops.Allreduce(par.MaskedDot(ops.Owned, ws.rhat, ws.v))
		if den == 0 {
			return stats, ErrBreakdown
		}
		alpha = rho / den
		ws.alpha = alpha
		ss, _ := par.reduce2(n, ws.bicgS)
		snorm := math.Sqrt(ops.Allreduce(ss))
		if nonFinite(snorm) {
			stats.Residual = snorm / bnorm
			return stats, ErrNonFinite
		}
		if snorm/bnorm <= tol {
			par.Axpy(alpha, ws.phat, x)
			stats.Iterations = k + 1
			stats.Residual = snorm / bnorm
			stats.Converged = true
			return stats, nil
		}
		ops.MatVec(ws.shat, ws.t)
		tt, ts := ops.Allreduce2(par.MaskedDot2(ops.Owned, ws.t, ws.t, ws.t, ws.s))
		if tt == 0 {
			return stats, ErrBreakdown
		}
		omega = ts / tt
		if omega == 0 {
			return stats, ErrBreakdown
		}
		ws.omega = omega
		rrLoc, rhoLoc = par.reduce2(n, ws.bicgXR)
		stats.Iterations = k + 1
	}
	stats.Residual = math.Sqrt(ops.Allreduce(rrLoc)) / bnorm
	if nonFinite(stats.Residual) {
		return stats, ErrNonFinite
	}
	stats.Converged = stats.Residual <= tol
	return stats, nil
}
