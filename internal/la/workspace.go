package la

// KrylovWorkspace holds the scratch vectors and prebuilt parallel-loop
// bodies of the Krylov solvers — the Go analogue of MPI persistent
// requests for the solver phases: allocate one per solver, pass it to
// PCGWithWorkspace / BiCGSTABWithWorkspace, and the steady-state solve
// performs zero heap allocations. The vectors grow on demand and are
// resliced to the active system size per solve; every vector is fully
// written before it is read, so reuse cannot change a single bit of the
// iterates (a reused, dirtied workspace is pinned bit-identical to a
// fresh one by the equivalence tests).
//
// A workspace serves one solve at a time; sharing one between the
// momentum and pressure solvers of a rank is fine (they run
// sequentially), sharing across goroutines is not.
type KrylovWorkspace struct {
	// PCG set (r, z and p are shared with BiCGSTAB).
	r, z, p, ap []float64
	// BiCGSTAB extras.
	rhat, v, s, t, phat, shat []float64
	// d is the preconditioner's diagonal, read once per solve.
	d []float64

	// Caller data of the solve in flight, read by the prebuilt bodies;
	// detached at solve end so they are not retained.
	b, x  []float64
	owned []bool
	// Scalar slots read by the prebuilt bodies.
	alpha, beta, omega float64
	first              bool // BiCGSTAB's first iteration: p = r

	// Prebuilt passes (capture only the workspace, so a solver iteration
	// allocates no closures). The reducing ones return the owned rows'
	// partial sums over [lo,hi), as ParOps.reduce2 expects.
	pcgInit  func(lo, hi int) (float64, float64) // r = b - r, z = d⊙r, p = z; {r·z, r·r}
	pcgStep  func(lo, hi int) (float64, float64) // x += αp, r -= α·ap, z = d⊙r; {r·z, r·r}
	pcgP     func(lo, hi int)                    // p = z + βp
	bicgInit func(lo, hi int) (float64, float64) // r = b - r, r̂ = r; {r·r, r̂·r}
	bicgP    func(lo, hi int)                    // p = r + β(p - ωv) (p = r first), p̂ = d⊙p
	bicgS    func(lo, hi int) (float64, float64) // s = r - αv, ŝ = d⊙s; {s·s, 0}
	bicgXR   func(lo, hi int) (float64, float64) // x += αp̂ + ωŝ, r = s - ωt; {r·r, r̂·r}
}

// NewKrylovWorkspace returns a workspace pre-sized for n unknowns; it
// grows transparently if later solves are larger.
func NewKrylovWorkspace(n int) *KrylovWorkspace {
	w := &KrylovWorkspace{}
	w.reserve(n)
	w.pcgInit = func(lo, hi int) (float64, float64) {
		r, b, z, p, d, own := w.r[lo:hi], w.b[lo:hi], w.z[lo:hi], w.p[lo:hi], w.d[lo:hi], w.owned[lo:hi]
		rz, rr := 0.0, 0.0
		for i := range r {
			ri := b[i] - r[i]
			zi := ri * d[i]
			r[i], z[i], p[i] = ri, zi, zi
			if own[i] {
				rz += ri * zi
				rr += ri * ri
			}
		}
		return rz, rr
	}
	w.pcgStep = func(lo, hi int) (float64, float64) {
		x, p, r, ap, z, d, own := w.x[lo:hi], w.p[lo:hi], w.r[lo:hi], w.ap[lo:hi], w.z[lo:hi], w.d[lo:hi], w.owned[lo:hi]
		alpha, nalpha := w.alpha, -w.alpha
		rz, rr := 0.0, 0.0
		for i := range r {
			x[i] += alpha * p[i]
			ri := r[i] + nalpha*ap[i]
			zi := ri * d[i]
			r[i], z[i] = ri, zi
			if own[i] {
				rz += ri * zi
				rr += ri * ri
			}
		}
		return rz, rr
	}
	w.pcgP = func(lo, hi int) {
		p, z, beta := w.p[lo:hi], w.z[lo:hi], w.beta
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	w.bicgInit = func(lo, hi int) (float64, float64) {
		r, b, rhat, own := w.r[lo:hi], w.b[lo:hi], w.rhat[lo:hi], w.owned[lo:hi]
		rr := 0.0
		for i := range r {
			ri := b[i] - r[i]
			r[i], rhat[i] = ri, ri
			if own[i] {
				rr += ri * ri
			}
		}
		return rr, rr // r̂ = r, so r̂·r is r·r
	}
	w.bicgP = func(lo, hi int) {
		p, r, v, phat, d := w.p[lo:hi], w.r[lo:hi], w.v[lo:hi], w.phat[lo:hi], w.d[lo:hi]
		if w.first {
			for i := range p {
				p[i] = r[i]
				phat[i] = r[i] * d[i]
			}
			return
		}
		beta, omega := w.beta, w.omega
		for i := range p {
			pi := r[i] + beta*(p[i]-omega*v[i])
			p[i] = pi
			phat[i] = pi * d[i]
		}
	}
	w.bicgS = func(lo, hi int) (float64, float64) {
		s, shat, r, v, d, own := w.s[lo:hi], w.shat[lo:hi], w.r[lo:hi], w.v[lo:hi], w.d[lo:hi], w.owned[lo:hi]
		alpha := w.alpha
		ss := 0.0
		for i := range s {
			si := r[i] - alpha*v[i]
			s[i], shat[i] = si, si*d[i]
			if own[i] {
				ss += si * si
			}
		}
		return ss, 0
	}
	w.bicgXR = func(lo, hi int) (float64, float64) {
		x, r, rhat, s, t, phat, shat, own := w.x[lo:hi], w.r[lo:hi], w.rhat[lo:hi], w.s[lo:hi], w.t[lo:hi], w.phat[lo:hi], w.shat[lo:hi], w.owned[lo:hi]
		alpha, omega := w.alpha, w.omega
		rr, rho := 0.0, 0.0
		for i := range r {
			x[i] += alpha*phat[i] + omega*shat[i]
			ri := s[i] - omega*t[i]
			r[i] = ri
			if own[i] {
				rr += ri * ri
				rho += rhat[i] * ri
			}
		}
		return rr, rho
	}
	return w
}

// reserve sizes every scratch vector to n, reallocating only on growth.
func (w *KrylovWorkspace) reserve(n int) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
		w.rhat = make([]float64, n)
		w.v = make([]float64, n)
		w.s = make([]float64, n)
		w.t = make([]float64, n)
		w.phat = make([]float64, n)
		w.shat = make([]float64, n)
		w.d = make([]float64, n)
		return
	}
	w.r = w.r[:n]
	w.z = w.z[:n]
	w.p = w.p[:n]
	w.ap = w.ap[:n]
	w.rhat = w.rhat[:n]
	w.v = w.v[:n]
	w.s = w.s[:n]
	w.t = w.t[:n]
	w.phat = w.phat[:n]
	w.shat = w.shat[:n]
	w.d = w.d[:n]
}

// begin sizes the workspace for ops, points it at the solve's caller
// data, and reads the diagonal of precond — a diagonal scaling — by
// applying it to a ones vector (z, which every solve rewrites before
// reading it again).
func (w *KrylovWorkspace) begin(ops Ops, precond func(r, z []float64), b, x []float64) {
	w.reserve(ops.N)
	w.b, w.x, w.owned = b, x, ops.Owned
	Fill(w.z, 1)
	precond(w.z, w.d)
}

// detach drops the caller-data references after a solve.
func (w *KrylovWorkspace) detach() {
	w.b, w.x, w.owned = nil, nil, nil
}
