package la

// This file is the pool-aware kernel layer: the Krylov solver phases
// (the paper's Solver1/Solver2, which Table 1 shows dominating per-step
// runtime) are memory-bound SpMV and reduction loops, and on an Arm
// node they only scale if every rank's kernels use the rank's thread
// team. ParOps runs them over a tasking.Pool with a determinism
// contract strong enough for the golden regression suite:
//
//   - MulVec is row-blocked; each row is reduced serially by exactly
//     one worker, so the result is bit-identical to the serial kernel.
//   - Dot/MaskedDot/MaskedDot2 use fixed-size chunks (reductionChunk
//     entries, independent of the worker count): workers compute
//     per-chunk partial sums, and the partials are combined serially in
//     ascending chunk order. The result is bit-identical at any worker
//     count — including mid-solve DLB resizes — and equal to the serial
//     reference DotChunked. MaskedDot2 keeps one accumulator per
//     component, so each equals its own MaskedDot.
//   - Axpy/Range are element-wise with disjoint writes, so they are
//     bit-identical to serial by construction.

// Runner is the slice of tasking.Pool the kernels need. It is declared
// here so la does not depend on the tasking package; *tasking.Pool
// satisfies it. ParallelFor with grain > 0 must execute body over the
// fixed chunks [k*grain, min((k+1)*grain, n)) exactly once each.
type Runner interface {
	ParallelFor(n, grain int, body func(lo, hi int))
}

const (
	// reductionChunk is the fixed reduction chunk size. It is part of
	// the numerical contract (it fixes the combination tree of every
	// inner product), so changing it changes solver iterates in the
	// last bits and may require re-pinning goldens.
	reductionChunk = 4096
	// parMinN is the smallest n worth fanning out; below it the fork
	// overhead exceeds the loop. Serial and parallel paths produce the
	// same bits, so this threshold is purely a performance knob.
	parMinN = 4096
	// mulVecRowGrain is the row-block size for parallel MulVec.
	mulVecRowGrain = 256
)

// ParOps executes the la kernels on an optional worker pool. The zero
// of *ParOps is valid: a nil *ParOps (or one built with a nil Runner)
// runs everything serially, so call sites never need nil checks. A
// ParOps is not safe for concurrent use by multiple goroutines (it
// reuses a partials scratch buffer and the kernel argument slots); each
// solver rank owns its own.
//
// The threaded kernels route their arguments through per-instance slots
// read by loop bodies built once at construction, so a steady-state
// kernel call allocates nothing (a per-call closure capturing the
// arguments would escape to the heap on every invocation).
type ParOps struct {
	pool     Runner
	partials []float64

	// Argument slots + prebuilt bodies for the threaded kernels. Slots
	// are set immediately before the ParallelFor and cleared after it so
	// caller vectors are not retained between calls.
	mvA      *CSRMatrix
	mvX, mvY []float64
	mvBody   func(lo, hi int)

	dotX, dotY   []float64
	dotX2, dotY2 []float64
	dotMask      []bool
	dotParts     []float64
	dotBody      func(lo, hi int)
	mdotBody     func(lo, hi int)
	mdot2Body    func(lo, hi int)

	axAlpha  float64
	axX, axY []float64
	axBody   func(lo, hi int)
}

// NewParOps returns a kernel layer over pool; pool may be nil for a
// serial layer.
func NewParOps(pool Runner) *ParOps {
	o := &ParOps{pool: pool}
	o.initBodies()
	return o
}

// initBodies builds the reusable loop bodies; they capture only the
// receiver and read their arguments from the slots.
func (o *ParOps) initBodies() {
	o.mvBody = func(lo, hi int) { o.mvA.mulVecRows(o.mvX, o.mvY, lo, hi) }
	o.dotBody = func(lo, hi int) {
		o.dotParts[lo/reductionChunk] = dotRange(o.dotX, o.dotY, lo, hi)
	}
	o.mdotBody = func(lo, hi int) {
		o.dotParts[lo/reductionChunk] = maskedDotRange(o.dotMask, o.dotX, o.dotY, lo, hi)
	}
	o.mdot2Body = func(lo, hi int) {
		c, nc := lo/reductionChunk, len(o.dotParts)/2
		o.dotParts[c], o.dotParts[nc+c] = maskedDot2Range(o.dotMask, o.dotX, o.dotY, o.dotX2, o.dotY2, lo, hi)
	}
	o.axBody = func(lo, hi int) { axpyRange(o.axAlpha, o.axX, o.axY, lo, hi) }
}

// threaded reports whether a loop of n iterations should fan out.
func (o *ParOps) threaded(n int) bool {
	return o != nil && o.pool != nil && n >= parMinN
}

// scratch returns a partials buffer with at least nChunks slots.
func (o *ParOps) scratch(nChunks int) []float64 {
	if cap(o.partials) < nChunks {
		o.partials = make([]float64, nChunks)
	}
	return o.partials[:nChunks]
}

// MulVec computes y = A x, row-blocked over the pool. Bit-identical to
// the serial CSRMatrix.MulVec at any worker count.
func (o *ParOps) MulVec(a *CSRMatrix, x, y []float64) {
	if !o.threaded(a.N) {
		a.MulVec(x, y)
		return
	}
	o.mvA, o.mvX, o.mvY = a, x, y
	o.pool.ParallelFor(a.N, mulVecRowGrain, o.mvBody)
	o.mvA, o.mvX, o.mvY = nil, nil, nil
}

// Dot computes the inner product with the fixed-chunk deterministic
// reduction; the result equals DotChunked(x, y) bit for bit at any
// worker count.
func (o *ParOps) Dot(x, y []float64) float64 {
	if !o.threaded(len(x)) {
		return DotChunked(x, y)
	}
	parts := o.scratch(numChunks(len(x)))
	o.dotX, o.dotY, o.dotParts = x, y, parts
	o.pool.ParallelFor(len(x), reductionChunk, o.dotBody)
	o.dotX, o.dotY, o.dotParts = nil, nil, nil
	return sumOrdered(parts)
}

// MaskedDot computes sum_{i: mask[i]} x[i]*y[i] with the same
// fixed-chunk scheme; it equals MaskedDotChunked bit for bit at any
// worker count. This is the per-rank piece of the solver's owned-node
// inner product.
func (o *ParOps) MaskedDot(mask []bool, x, y []float64) float64 {
	if !o.threaded(len(x)) {
		return MaskedDotChunked(mask, x, y)
	}
	parts := o.scratch(numChunks(len(x)))
	o.dotMask, o.dotX, o.dotY, o.dotParts = mask, x, y, parts
	o.pool.ParallelFor(len(x), reductionChunk, o.mdotBody)
	o.dotMask, o.dotX, o.dotY, o.dotParts = nil, nil, nil, nil
	return sumOrdered(parts)
}

// MaskedDot2 computes MaskedDot(mask, x1, y1) and MaskedDot(mask, x2,
// y2) in one pass over the vectors, one accumulator per component; each
// equals its MaskedDotChunked bit for bit at any worker count. It is
// the local half of a Krylov solver's fused two-dot reduction.
func (o *ParOps) MaskedDot2(mask []bool, x1, y1, x2, y2 []float64) (float64, float64) {
	if !o.threaded(len(x1)) {
		return maskedDot2Chunked(mask, x1, y1, x2, y2)
	}
	nc := numChunks(len(x1))
	parts := o.scratch(2 * nc)
	o.dotMask, o.dotX, o.dotY, o.dotX2, o.dotY2, o.dotParts = mask, x1, y1, x2, y2, parts
	o.pool.ParallelFor(len(x1), reductionChunk, o.mdot2Body)
	o.dotMask, o.dotX, o.dotY, o.dotX2, o.dotY2, o.dotParts = nil, nil, nil, nil, nil, nil
	return sumOrdered(parts[:nc]), sumOrdered(parts[nc:])
}

// Axpy computes y += alpha*x in parallel; element-wise, so bit-identical
// to the serial Axpy.
func (o *ParOps) Axpy(alpha float64, x, y []float64) {
	if !o.threaded(len(x)) {
		Axpy(alpha, x, y)
		return
	}
	o.axAlpha, o.axX, o.axY = alpha, x, y
	o.pool.ParallelFor(len(x), 0, o.axBody)
	o.axX, o.axY = nil, nil
}

// Range runs body over [0,n) on the pool, or inline when the layer is
// serial or n is small. It is the escape hatch for the solvers' fused
// element-wise recurrences; bodies must write disjoint indices.
func (o *ParOps) Range(n int, body func(lo, hi int)) {
	if !o.threaded(n) {
		body(0, n)
		return
	}
	o.pool.ParallelFor(n, 0, body)
}

// DotChunked is the serial reference for the deterministic reduction:
// per-chunk partial sums combined in ascending chunk order. For
// len(x) <= reductionChunk it degenerates to the plain left-to-right
// Dot fold.
func DotChunked(x, y []float64) float64 {
	s := 0.0
	for lo := 0; lo < len(x); lo += reductionChunk {
		s += dotRange(x, y, lo, min(lo+reductionChunk, len(x)))
	}
	return s
}

// MaskedDotChunked is the serial reference for MaskedDot.
func MaskedDotChunked(mask []bool, x, y []float64) float64 {
	s := 0.0
	for lo := 0; lo < len(x); lo += reductionChunk {
		s += maskedDotRange(mask, x, y, lo, min(lo+reductionChunk, len(x)))
	}
	return s
}

// maskedDot2Chunked is the serial path of MaskedDot2: the chunk walk of
// MaskedDotChunked with one running sum per component.
func maskedDot2Chunked(mask []bool, x1, y1, x2, y2 []float64) (float64, float64) {
	s1, s2 := 0.0, 0.0
	for lo := 0; lo < len(x1); lo += reductionChunk {
		p1, p2 := maskedDot2Range(mask, x1, y1, x2, y2, lo, min(lo+reductionChunk, len(x1)))
		s1 += p1
		s2 += p2
	}
	return s1, s2
}

func numChunks(n int) int { return (n + reductionChunk - 1) / reductionChunk }

// sumOrdered folds partials in index order — the serial combination
// step that makes the parallel reductions deterministic.
func sumOrdered(parts []float64) float64 {
	s := 0.0
	for _, p := range parts {
		s += p
	}
	return s
}

func dotRange(x, y []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += x[i] * y[i]
	}
	return s
}

func maskedDotRange(mask []bool, x, y []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		if mask[i] {
			s += x[i] * y[i]
		}
	}
	return s
}

func maskedDot2Range(mask []bool, x1, y1, x2, y2 []float64, lo, hi int) (float64, float64) {
	s1, s2 := 0.0, 0.0
	for i := lo; i < hi; i++ {
		if mask[i] {
			s1 += x1[i] * y1[i]
			s2 += x2[i] * y2[i]
		}
	}
	return s1, s2
}

func axpyRange(alpha float64, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] += alpha * x[i]
	}
}
