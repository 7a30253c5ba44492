// Persistent message buffers: the Go analogue of MPI persistent
// requests (MPI_Send_init / MPI_Recv_init). A rank leases a typed
// buffer from the world's freelist, fills it in place, and sends it;
// ownership travels with the message, and the receiver releases the
// buffer back to the freelist after reading it. In steady state — a
// solver exchanging the same halos every iteration, the coupled fluid
// code shipping velocities every step — the same backing arrays cycle
// between the peers and no allocation happens at all, which is the
// point: GC pressure from per-exchange buffer churn taxes every rank of
// the node, exactly the shared-resource interference the paper's DLB
// work fights.
package simmpi

import "sync"

// Float64Buf is a leased []float64 transport buffer. Fill Data, send
// with SendFloat64Buf (ownership moves to the receiver), or Release it
// unsent. After Release or a send the lessee must not touch Data again.
type Float64Buf struct {
	Data []float64
	w    *World
}

// Release returns the buffer to its world's freelist.
func (b *Float64Buf) Release() {
	b.w.bufs.putFloat(b)
}

// Int32Buf is a leased []int32 transport buffer (see Float64Buf).
type Int32Buf struct {
	Data []int32
	w    *World
}

// Release returns the buffer to its world's freelist.
func (b *Int32Buf) Release() {
	b.w.bufs.putInt(b)
}

// Freelist bounds. A burst (a migration storm, a wide collective)
// grows the freelist to its high-water mark; without bounds a
// long-lived multi-scenario process retains that peak forever. The cap
// rejects buffers beyond maxFree outright, and the idle trim frees the
// buffers that sat unused for a whole trim window (the classic
// low-water-mark policy: list entries below the window's minimum length
// were never leased, so they are surplus).
const (
	// defaultMaxFree is the per-type cap on retained idle buffers.
	defaultMaxFree = 256
	// defaultTrimEvery is the lease/release operation count between
	// idle trims.
	defaultTrimEvery = 4096
)

// bufPool is the world-level freelist of transport buffers. It is
// shared by all ranks (buffers migrate from sender to receiver, so
// per-rank lists would drain on one-way traffic patterns); the lock is
// held only for a pop or push.
type bufPool struct {
	mu     sync.Mutex
	floats []*Float64Buf
	ints   []*Int32Buf

	// maxFree / trimEvery are the bounds above; zero means default
	// (they are per-world so tests can tighten them).
	maxFree   int
	trimEvery int
	ops       int // lease/release ops since the last trim
	floatLow  int // min len(floats) this window: idle surplus
	intLow    int // min len(ints) this window
}

// maybeTrimLocked advances the trim clock and, once per window, frees
// the idle surplus of both lists (p.mu held). Steady-state traffic
// keeps the low-water marks at the level the traffic actually drains
// to, so an active pattern loses nothing — only buffers untouched for
// the whole window are dropped.
func (p *bufPool) maybeTrimLocked() {
	every := p.trimEvery
	if every == 0 {
		every = defaultTrimEvery
	}
	p.ops++
	if p.ops < every {
		return
	}
	p.ops = 0
	if n := p.floatLow; n > 0 {
		k := copy(p.floats, p.floats[n:])
		for i := k; i < len(p.floats); i++ {
			p.floats[i] = nil
		}
		p.floats = p.floats[:k]
	}
	if n := p.intLow; n > 0 {
		k := copy(p.ints, p.ints[n:])
		for i := k; i < len(p.ints); i++ {
			p.ints[i] = nil
		}
		p.ints = p.ints[:k]
	}
	p.floatLow = len(p.floats)
	p.intLow = len(p.ints)
}

func (p *bufPool) getFloat(w *World, n int) *Float64Buf {
	p.mu.Lock()
	var b *Float64Buf
	if k := len(p.floats); k > 0 {
		b = p.floats[k-1]
		p.floats[k-1] = nil
		p.floats = p.floats[:k-1]
		if k-1 < p.floatLow {
			p.floatLow = k - 1
		}
	}
	p.maybeTrimLocked()
	p.mu.Unlock()
	if b == nil {
		b = &Float64Buf{w: w}
	}
	if cap(b.Data) < n {
		b.Data = make([]float64, n)
	}
	b.Data = b.Data[:n]
	return b
}

func (p *bufPool) putFloat(b *Float64Buf) {
	p.mu.Lock()
	max := p.maxFree
	if max == 0 {
		max = defaultMaxFree
	}
	if len(p.floats) < max {
		p.floats = append(p.floats, b)
	}
	p.maybeTrimLocked()
	p.mu.Unlock()
}

func (p *bufPool) getInt(w *World, n int) *Int32Buf {
	p.mu.Lock()
	var b *Int32Buf
	if k := len(p.ints); k > 0 {
		b = p.ints[k-1]
		p.ints[k-1] = nil
		p.ints = p.ints[:k-1]
		if k-1 < p.intLow {
			p.intLow = k - 1
		}
	}
	p.maybeTrimLocked()
	p.mu.Unlock()
	if b == nil {
		b = &Int32Buf{w: w}
	}
	if cap(b.Data) < n {
		b.Data = make([]int32, n)
	}
	b.Data = b.Data[:n]
	return b
}

func (p *bufPool) putInt(b *Int32Buf) {
	p.mu.Lock()
	max := p.maxFree
	if max == 0 {
		max = defaultMaxFree
	}
	if len(p.ints) < max {
		p.ints = append(p.ints, b)
	}
	p.maybeTrimLocked()
	p.mu.Unlock()
}

// LeaseFloat64s leases a length-n buffer from the world freelist.
func (c *Comm) LeaseFloat64s(n int) *Float64Buf {
	return c.world.bufs.getFloat(c.world, n)
}

// LeaseInt32s leases a length-n buffer from the world freelist.
func (c *Comm) LeaseInt32s(n int) *Int32Buf {
	return c.world.bufs.getInt(c.world, n)
}

// SendFloat64Buf sends a leased buffer to dst (comm rank) under tag.
// Ownership transfers with the message: the receiver Releases (or
// re-sends) it, and the sender must not touch it after the call.
func (c *Comm) SendFloat64Buf(dst, tag int, b *Float64Buf) {
	c.send(dst, tag, b)
}

// RecvFloat64Buf receives a float64 message as the leased buffer it
// travelled in; the caller must Release it.
func (c *Comm) RecvFloat64Buf(src, tag int) *Float64Buf {
	p, ok := c.recv(src, tag).(*Float64Buf)
	if !ok {
		panic("simmpi: RecvFloat64Buf on non-float64 payload")
	}
	return p
}

// RecvInt32Buf receives an int32 message as the leased buffer it
// travelled in; the caller must Release it.
func (c *Comm) RecvInt32Buf(src, tag int) *Int32Buf {
	p, ok := c.recv(src, tag).(*Int32Buf)
	if !ok {
		panic("simmpi: RecvInt32Buf on non-int32 payload")
	}
	return p
}

// RecvFloat64sInto receives a []float64-carrying message into dst (grown
// only if too small) and recycles the transport buffer; it returns dst
// resliced to the message length. With an adequately sized dst the
// receive allocates nothing.
func (c *Comm) RecvFloat64sInto(src, tag int, dst []float64) []float64 {
	p := c.RecvFloat64Buf(src, tag)
	if cap(dst) < len(p.Data) {
		dst = make([]float64, len(p.Data))
	}
	dst = dst[:len(p.Data)]
	copy(dst, p.Data)
	p.Release()
	return dst
}

// RecvInt32sInto receives a []int32-carrying message into dst (see
// RecvFloat64sInto).
func (c *Comm) RecvInt32sInto(src, tag int, dst []int32) []int32 {
	p := c.RecvInt32Buf(src, tag)
	if cap(dst) < len(p.Data) {
		dst = make([]int32, len(p.Data))
	}
	dst = dst[:len(p.Data)]
	copy(dst, p.Data)
	p.Release()
	return dst
}
