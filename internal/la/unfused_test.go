package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tasking"
)

// unfusedOps is the operation set the unfused solvers below take: every
// inner product is one global reduction (Dot), or two from one reduction
// (Dot2), computed apart from the vector updates.
type unfusedOps struct {
	N      int
	MatVec func(x, y []float64)
	Dot    func(x, y []float64) float64
	Dot2   func(x1, y1, x2, y2 []float64) (float64, float64)
}

// unfused gives ops' reductions the unfused shape: the owned rows'
// MaskedDotChunked partials, summed by ops' allreduce hooks.
func unfused(ops Ops) unfusedOps {
	return unfusedOps{
		N:      ops.N,
		MatVec: ops.MatVec,
		Dot: func(x, y []float64) float64 {
			return ops.Allreduce(MaskedDotChunked(ops.Owned, x, y))
		},
		Dot2: func(x1, y1, x2, y2 []float64) (float64, float64) {
			return ops.Allreduce2(MaskedDotChunked(ops.Owned, x1, y1), MaskedDotChunked(ops.Owned, x2, y2))
		},
	}
}

// unfusedPCG is the PCG loop before its passes were fused — one pass per
// vector update, the preconditioner applied as a closure every iteration
// — kept as the oracle the fused solver must match bit for bit. The
// element-wise updates run serially: their bits do not depend on the
// worker count.
func unfusedPCG(ops unfusedOps, precond func(r, z []float64), b, x []float64, tol float64, maxIter int) (SolveStats, error) {
	n := ops.N
	r, z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)

	ops.MatVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := math.Sqrt(ops.Dot(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	precond(r, z)
	copy(p, z)
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
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		precond(r, z)
		var rzNew float64
		rzNew, rr = ops.Dot2(r, z, r, r)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		stats.Iterations = k + 1
	}
	stats.Residual = math.Sqrt(rr) / bnorm
	if nonFinite(stats.Residual) {
		return stats, ErrNonFinite
	}
	stats.Converged = stats.Residual <= tol
	return stats, nil
}

// unfusedBiCGSTAB is the BiCGSTAB loop before its passes were fused,
// kept as the oracle (see unfusedPCG).
func unfusedBiCGSTAB(ops unfusedOps, precond func(r, z []float64), b, x []float64, tol float64, maxIter int) (SolveStats, error) {
	n := ops.N
	r, rhat, p, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	s, t, phat, shat := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)

	ops.MatVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(rhat, r)
	bnorm := math.Sqrt(ops.Dot(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	var stats SolveStats
	for k := 0; k < maxIter; k++ {
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
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		precond(p, phat)
		ops.MatVec(phat, v)
		den := ops.Dot(rhat, v)
		if den == 0 {
			return stats, ErrBreakdown
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		snorm := math.Sqrt(ops.Dot(s, s))
		if nonFinite(snorm) {
			stats.Residual = snorm / bnorm
			return stats, ErrNonFinite
		}
		if snorm/bnorm <= tol {
			Axpy(alpha, phat, x)
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
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
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

// reduction is one allreduce call as a solver made it: the slot count
// and the bits of each partial.
type reduction struct {
	slots int
	a, b  uint64
}

// loggedOps wraps ops' allreduce hooks so every call is appended to log.
// double makes each hook sum two ranks holding the same partial.
func loggedOps(ops Ops, double bool, log *[]reduction) Ops {
	sum := func(v float64) float64 {
		if double {
			return v + v
		}
		return v
	}
	ops.Allreduce = func(v float64) float64 {
		*log = append(*log, reduction{1, math.Float64bits(v), 0})
		return sum(v)
	}
	ops.Allreduce2 = func(a, b float64) (float64, float64) {
		*log = append(*log, reduction{2, math.Float64bits(a), math.Float64bits(b)})
		return sum(a), sum(b)
	}
	return ops
}

// krylovCase is one drawn system for the fused-solver oracle check.
type krylovCase struct {
	a        *CSRMatrix
	owned    []bool
	b, x0    []float64
	precond  func(r, z []float64)
	tol      float64
	maxIter  int
	double   bool
	par      *ParOps
	parLabel string
}

// checkFusedKrylov runs both fused solvers and their unfused oracles on
// c and demands the same error, SolveStats and final iterate bit for
// bit, and the same allreduce calls with the same partials in the same
// order.
func checkFusedKrylov(t *testing.T, c krylovCase) {
	t.Helper()
	n := c.a.N
	type solver struct {
		name   string
		fused  func(Ops, func(r, z []float64), []float64, []float64, float64, int, *KrylovWorkspace) (SolveStats, error)
		oracle func(unfusedOps, func(r, z []float64), []float64, []float64, float64, int) (SolveStats, error)
	}
	for _, s := range []solver{{"PCG", PCGWithWorkspace, unfusedPCG}, {"BiCGSTAB", BiCGSTABWithWorkspace, unfusedBiCGSTAB}} {
		base := Ops{N: n, MatVec: c.a.MulVec, Owned: c.owned, Vec: c.par}
		if c.par != nil {
			base.MatVec = func(x, y []float64) { c.par.MulVec(c.a, x, y) }
		}
		var wantLog, gotLog []reduction
		want, got := slices.Clone(c.x0), slices.Clone(c.x0)
		wantSt, wantErr := s.oracle(unfused(loggedOps(base, c.double, &wantLog)), c.precond, c.b, want, c.tol, c.maxIter)
		// A dirtied, oversized workspace must not change a bit.
		ws := NewKrylovWorkspace(n + 3)
		Fill(ws.r[:cap(ws.r)], math.NaN())
		Fill(ws.p[:cap(ws.p)], math.Inf(1))
		gotSt, gotErr := s.fused(loggedOps(base, c.double, &gotLog), c.precond, c.b, got, c.tol, c.maxIter, ws)

		label := s.name + " on " + c.parLabel
		if gotErr != wantErr {
			t.Fatalf("%s, n=%d: err %v, oracle %v", label, n, gotErr, wantErr)
		}
		if gotSt.Iterations != wantSt.Iterations || gotSt.Converged != wantSt.Converged || !sameBits(gotSt.Residual, wantSt.Residual) {
			t.Fatalf("%s, n=%d: stats %+v, oracle %+v", label, n, gotSt, wantSt)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s, n=%d, %d iterations: x[%d] = %x, oracle %x", label, n, gotSt.Iterations, i, got[i], want[i])
			}
		}
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("%s, n=%d: allreduce calls differ from the oracle's:\n got %v\nwant %v", label, n, gotLog, wantLog)
		}
	}
}

// krylovSizes are the lengths the oracle check draws from: empty, tiny,
// and either side of one and two reduction chunks.
var krylovSizes = []int{0, 1, 2, 7, 4095, 4096, 4097, 8191, 8192, 8193}

// FuzzFusedKrylov: on lengths around the reduction-chunk edges, owned
// masks whose runs cross chunk edges, edgeValue systems (±0,
// subnormals, the smallest normal, huge and ordinary normals) and
// well-posed chains, identity, Jacobi and partly zero diagonal
// scalings, one- and two-rank allreduces, serially and on 1–4 workers,
// the fused PCG and BiCGSTAB return what their unfused oracles return,
// bit for bit: the same iterate, SolveStats and ErrBreakdown or
// ErrNonFinite at the same iteration, through the same allreduce calls.
func FuzzFusedKrylov(f *testing.F) {
	for i := range krylovSizes {
		f.Add(int64(i), uint8(i), uint8(i), uint8(37*i), uint8(12+i))
	}
	f.Add(int64(40), uint8(5), uint8(3), uint8(0xff), uint8(40))
	f.Add(int64(41), uint8(9), uint8(5), uint8(0x5a), uint8(0))
	pars := []*ParOps{nil, NewParOps(nil)}
	for w := 1; w <= 4; w++ {
		pool := tasking.NewPool(w)
		f.Cleanup(pool.Close)
		pars = append(pars, NewParOps(pool))
	}
	parLabels := []string{"nil", "serial", "pool1", "pool2", "pool3", "pool4"}
	f.Fuzz(func(t *testing.T, seed int64, size, layer, flags, iters uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := krylovSizes[int(size)%len(krylovSizes)]
		li := int(layer) % len(pars)
		c := krylovCase{
			maxIter:  int(iters % 41),
			double:   flags&(1<<5) != 0,
			par:      pars[li],
			parLabel: parLabels[li],
		}
		// A well-posed chain that converges, or a system of edge values
		// that breaks down or blows up.
		if flags&1 == 0 {
			c.a = chainMatrix(n)
			if flags&(1<<1) != 0 {
				c.a = skewChainMatrix(n)
			}
			c.b, c.x0 = solverRHS(n, seed), make([]float64, n)
		} else {
			c.a = zeroyCSR(n, rng)
			c.b, c.x0 = edgeVec(rng, n), edgeVec(rng, n)
		}
		// Identity, Jacobi, or a scaling that is zero on some rows (so
		// search directions can vanish and the recurrences break down).
		c.precond = identity
		if flags&(1<<2) != 0 {
			d := make([]float64, n)
			c.a.Diagonal(d)
			c.precond = jacobi(d)
		}
		if flags&(1<<7) != 0 {
			d := make([]float64, n)
			for i := range d {
				if rng.Intn(2) == 0 {
					d[i] = 1
				}
			}
			c.precond = func(r, z []float64) {
				for i := range r {
					z[i] = r[i] * d[i]
				}
			}
		}
		switch {
		case flags&(1<<3) != 0:
			c.owned = make([]bool, n)
			for i := range c.owned {
				c.owned[i] = rng.Intn(4) != 0
			}
		case flags&(1<<4) != 0:
			c.owned = chunkEdgeMask(n, 1+rng.Intn(2100))
		default:
			c.owned = slices.Repeat([]bool{true}, n)
		}
		if flags&(1<<6) != 0 {
			c.tol = 1e-8
		}
		checkFusedKrylov(t, c)
	})
}
