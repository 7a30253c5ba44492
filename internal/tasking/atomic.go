package tasking

import (
	"math"
	"sync/atomic"
)

// AtomicFloat64Slice wraps a []uint64 bit store providing lock-free
// float64 accumulation via compare-and-swap — the Go equivalent of
// `#pragma omp atomic` on a double. The paper's Atomics assembly strategy
// pays exactly this CAS (plus its pipeline cost) once per scattered
// update, whether or not a conflict actually occurs.
type AtomicFloat64Slice struct {
	bits []uint64
}

// NewAtomicFloat64Slice creates a zeroed atomic accumulation array.
func NewAtomicFloat64Slice(n int) *AtomicFloat64Slice {
	return &AtomicFloat64Slice{bits: make([]uint64, n)}
}

// Len reports the number of elements.
func (a *AtomicFloat64Slice) Len() int { return len(a.bits) }

// Add atomically performs a[i] += v.
func (a *AtomicFloat64Slice) Add(i int, v float64) {
	addr := &a.bits[i]
	for {
		old := atomic.LoadUint64(addr)
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(addr, old, newBits) {
			return
		}
	}
}

// Load returns a[i] (atomic read).
func (a *AtomicFloat64Slice) Load(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&a.bits[i]))
}

// Store sets a[i] = v (atomic write).
func (a *AtomicFloat64Slice) Store(i int, v float64) {
	atomic.StoreUint64(&a.bits[i], math.Float64bits(v))
}

// Zero resets all entries. Not atomic with respect to concurrent Adds.
func (a *AtomicFloat64Slice) Zero() {
	for i := range a.bits {
		a.bits[i] = 0
	}
}

// CopyTo copies the current values into dst.
func (a *AtomicFloat64Slice) CopyTo(dst []float64) {
	for i := range a.bits {
		dst[i] = a.Load(i)
	}
}
