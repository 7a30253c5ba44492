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
//   - Every reduction (MaskedDot, MaskedDot2 and the solvers' fused
//     passes) runs through reduce2 over fixed-size chunks
//     (reductionChunk entries, independent of the worker count):
//     workers compute per-chunk partial sums, and the partials are
//     combined serially in ascending chunk order. The result is
//     bit-identical at any worker count — including mid-solve DLB
//     resizes — and equal to the serial reference MaskedDotChunked,
//     one accumulator per component.
//   - Axpy/Range and the element-wise half of a fused pass write
//     disjoint indices, so they are bit-identical to serial by
//     construction.

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
	mdotBody     func(lo, hi int) (float64, float64)
	mdot2Body    func(lo, hi int) (float64, float64)

	redBody  func(lo, hi int) (float64, float64)
	redParts []float64
	redWrap  func(lo, hi int)

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
	o.mdotBody = func(lo, hi int) (float64, float64) {
		return maskedDotRange(o.dotMask, o.dotX, o.dotY, lo, hi), 0
	}
	o.mdot2Body = func(lo, hi int) (float64, float64) {
		return maskedDot2Range(o.dotMask, o.dotX, o.dotY, o.dotX2, o.dotY2, lo, hi)
	}
	o.redWrap = func(lo, hi int) {
		c, nc := lo/reductionChunk, len(o.redParts)/2
		o.redParts[c], o.redParts[nc+c] = o.redBody(lo, hi)
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

// reduce2 runs body over [0,n) in fixed reductionChunk-sized chunks
// and folds each of the two partial sums body returns in ascending
// chunk order, starting from +0 — the order of MaskedDotChunked, so the
// sums are bit-identical at any worker count. body may also write
// element-wise outputs for its own chunk: that is how a Krylov solver
// fuses a vector update with the inner products that read it.
func (o *ParOps) reduce2(n int, body func(lo, hi int) (float64, float64)) (float64, float64) {
	if !o.threaded(n) {
		s1, s2 := 0.0, 0.0
		for lo := 0; lo < n; lo += reductionChunk {
			p1, p2 := body(lo, min(lo+reductionChunk, n))
			s1 += p1
			s2 += p2
		}
		return s1, s2
	}
	nc := numChunks(n)
	parts := o.scratch(2 * nc)
	o.redBody, o.redParts = body, parts
	o.pool.ParallelFor(n, reductionChunk, o.redWrap)
	o.redBody, o.redParts = nil, nil
	return sumOrdered(parts[:nc]), sumOrdered(parts[nc:])
}

// MaskedDot computes sum_{i: mask[i]} x[i]*y[i] with the fixed-chunk
// scheme; it equals MaskedDotChunked bit for bit at any worker count.
// This is the per-rank piece of the solver's owned-node inner product.
func (o *ParOps) MaskedDot(mask []bool, x, y []float64) float64 {
	if !o.threaded(len(x)) {
		return MaskedDotChunked(mask, x, y)
	}
	o.dotMask, o.dotX, o.dotY = mask, x, y
	s, _ := o.reduce2(len(x), o.mdotBody)
	o.dotMask, o.dotX, o.dotY = nil, nil, nil
	return s
}

// MaskedDot2 computes MaskedDot(mask, x1, y1) and MaskedDot(mask, x2,
// y2) in one pass over the vectors, one accumulator per component; each
// equals its MaskedDotChunked bit for bit at any worker count.
func (o *ParOps) MaskedDot2(mask []bool, x1, y1, x2, y2 []float64) (float64, float64) {
	if !o.threaded(len(x1)) {
		return maskedDot2Chunked(mask, x1, y1, x2, y2)
	}
	o.dotMask, o.dotX, o.dotY, o.dotX2, o.dotY2 = mask, x1, y1, x2, y2
	a, b := o.reduce2(len(x1), o.mdot2Body)
	o.dotMask, o.dotX, o.dotY, o.dotX2, o.dotY2 = nil, nil, nil, nil, nil
	return a, b
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
// serial or n is small. It runs element-wise passes with no reduction;
// bodies must write disjoint indices.
func (o *ParOps) Range(n int, body func(lo, hi int)) {
	if !o.threaded(n) {
		body(0, n)
		return
	}
	o.pool.ParallelFor(n, 0, body)
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

func maskedDotRange(mask []bool, x, y []float64, lo, hi int) float64 {
	mask, x, y = mask[lo:hi], x[lo:hi], y[lo:hi]
	s := 0.0
	for i := range mask {
		if mask[i] {
			s += x[i] * y[i]
		}
	}
	return s
}

func maskedDot2Range(mask []bool, x1, y1, x2, y2 []float64, lo, hi int) (float64, float64) {
	mask, x1, y1, x2, y2 = mask[lo:hi], x1[lo:hi], y1[lo:hi], x2[lo:hi], y2[lo:hi]
	s1, s2 := 0.0, 0.0
	for i := range mask {
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
