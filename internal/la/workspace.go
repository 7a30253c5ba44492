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
	// PCG set (r and p are shared with BiCGSTAB).
	r, z, p, ap []float64
	// BiCGSTAB extras.
	rhat, v, s, t, phat, shat []float64

	// Caller vectors of the solve in flight, read by the prebuilt
	// bodies; detached at solve end so they are not retained.
	b, x []float64
	// Scalar slots read by the prebuilt bodies.
	alpha, beta, omega float64

	// Prebuilt fused-recurrence bodies (capture only the workspace, so a
	// solver iteration allocates no closures).
	resid func(lo, hi int) // r = b - r
	pcgP  func(lo, hi int) // p = z + beta*p
	bicgP func(lo, hi int) // p = r + beta*(p - omega*v)
	bicgS func(lo, hi int) // s = r - alpha*v
	bicgX func(lo, hi int) // x += alpha*phat + omega*shat
	bicgR func(lo, hi int) // r = s - omega*t
}

// NewKrylovWorkspace returns a workspace pre-sized for n unknowns; it
// grows transparently if later solves are larger.
func NewKrylovWorkspace(n int) *KrylovWorkspace {
	w := &KrylovWorkspace{}
	w.reserve(n)
	w.resid = func(lo, hi int) {
		r, b := w.r, w.b
		for i := lo; i < hi; i++ {
			r[i] = b[i] - r[i]
		}
	}
	w.pcgP = func(lo, hi int) {
		p, z, beta := w.p, w.z, w.beta
		for i := lo; i < hi; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	w.bicgP = func(lo, hi int) {
		p, r, v := w.p, w.r, w.v
		beta, omega := w.beta, w.omega
		for i := lo; i < hi; i++ {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
	}
	w.bicgS = func(lo, hi int) {
		s, r, v, alpha := w.s, w.r, w.v, w.alpha
		for i := lo; i < hi; i++ {
			s[i] = r[i] - alpha*v[i]
		}
	}
	w.bicgX = func(lo, hi int) {
		x, phat, shat := w.x, w.phat, w.shat
		alpha, omega := w.alpha, w.omega
		for i := lo; i < hi; i++ {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
	}
	w.bicgR = func(lo, hi int) {
		r, s, t, omega := w.r, w.s, w.t, w.omega
		for i := lo; i < hi; i++ {
			r[i] = s[i] - omega*t[i]
		}
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
}

// attach points the workspace at the solve's caller vectors.
func (w *KrylovWorkspace) attach(b, x []float64) {
	w.b, w.x = b, x
}

// detach drops the caller-vector references after a solve.
func (w *KrylovWorkspace) detach() {
	w.b, w.x = nil, nil
}
