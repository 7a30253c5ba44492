package particles

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/mesh"
	"repro/internal/tasking"
)

// Particle is one Lagrangian particle in AoS form, used at the system's
// edges: transport encoding, migration, tests. The tracker itself keeps
// its population in a ParticleStore.
type Particle struct {
	ID int64
	NewmarkState
	Elem int32 // containing element (global id), -1 if unknown
}

// stepShardSize is the fixed index-range width of one parallel Step
// shard. It is independent of the worker count so the shard structure is
// identical however many workers execute the shards.
const stepShardSize = 256

// Shards are whole kernel blocks, so only a population's last shard ever
// runs a partial block: the conversion is a compile error unless
// stepShardSize is a multiple of newmarkLanes.
const _ = uint(-(stepShardSize % newmarkLanes))

// Tracker advances the particles living in one subdomain (or the whole
// mesh when elems is nil). Its population lives in a structure-of-arrays
// ParticleStore, and Step shards the population across an optional
// tasking.Pool (SetPool); results are bit-identical for any worker count
// because every particle's physics is independent and the post-step
// compaction merges shard outcomes in index order.
type Tracker struct {
	Mesh    *mesh.Mesh
	Loc     *Locator
	Fluid   FluidProps
	Species Props

	Active *ParticleStore
	lost   []Particle

	// Fate counters.
	DepositedCount int
	ExitedCount    int

	// WorkUnits counts particle-steps performed — the per-rank load of
	// the particle phase used for Table 1's Ln accounting and as DLB's
	// work-unit measure for the particle phase.
	WorkUnits int64

	pool  *tasking.Pool
	fates []uint8 // per-particle step outcome scratch (0=kept, 1=lost)

	// Step-parameter slots read by stepBody, the population-sweep loop
	// body built once in NewTracker: remaking the closure per Step (it
	// captures the hoisted Newmark constants, dt among them, and the
	// velocity field) would heap-allocate on every step of the hot loop.
	stepPre  newmarkConsts
	stepVel  func(node int32) mesh.Vec3
	stepBody func(lo, hi int)

	outletZ float64 // particles lost below this height exited, not deposited
	nextID  int64

	// mig is the reusable working storage Migrate threads through its
	// three-phase protocol (claim/candidate/transfer scratch), so
	// heavy-migration steps stop churning the heap.
	mig migrateScratch
	// inj is the same for injection (the streamed candidate generator,
	// the claims and the collective claim resolution), which runs every
	// step under continuous dosing.
	inj injectScratch
	// locateBody locates inj.chunk[lo:hi] into inj.chunkElems[lo:hi]; it
	// is built once in NewTracker for the same reason as stepBody.
	locateBody func(lo, hi int)
}

// injectScratch is the per-tracker working storage of an injection. A
// release is streamed: its candidates are generated injectChunk at a time
// into one reused chunk, and only the ones this rank locates are kept, as
// (index, element) pairs ascending by index. The generator is reseeded
// rather than remade (rand.Rand.Seed restarts the exact sequence
// rand.NewSource would), so repeated injections allocate nothing once the
// slices reach the release size.
type injectScratch struct {
	rng      *rand.Rand
	centroid mesh.Vec3 // of the inlet nodes
	push     mesh.Vec3 // inward nudge along the release velocity

	chunk      []mesh.Vec3 // the candidates being located
	chunkElems []int32     // per chunk candidate: located element, -1 none

	idx   []int32 // ascending indices of the candidates this rank claims
	elems []int32 // elems[k]: the element holding candidate idx[k]

	host int8 // whether this subdomain can host a release: 0 unknown, 1 yes, -1 no
}

// injectChunk is how many candidates a release generates and locates at
// a time; injectShard is the index-range width of one parallel locate.
const (
	injectChunk = 4096
	injectShard = 256
)

// injectKeep is the largest release whose buffers the scratch keeps for
// the next one: repeated releases (continuous dosing, thousands per step)
// reuse them, while a larger one-off bolus drops them after use. The
// lists a rank that can host the release presizes cost 8 B per candidate,
// so keeping them would pin ~2.4 MB on that rank for the rest of a
// 300 000-particle bolus run; every other rank holds nothing.
const injectKeep = 1 << 16

// trim ends an injection: buffers grown past injectKeep are released.
func (s *injectScratch) trim() {
	if cap(s.idx) > injectKeep {
		s.idx, s.elems, s.chunk, s.chunkElems = nil, nil, nil, nil
	}
}

// begin restarts the deterministic candidate sequence of the (seed, vel)
// release on m: the same sequence on every rank and for every tracker
// implementation. It reports false when m has no inlet, whose releases
// are empty.
func (s *injectScratch) begin(m *mesh.Mesh, seed int64, vel mesh.Vec3) bool {
	inlet := m.InletNodes
	if len(inlet) == 0 {
		return false
	}
	var centroid mesh.Vec3
	for _, nd := range inlet {
		centroid = centroid.Add(m.Coords[nd])
	}
	s.centroid = centroid.Scale(1 / float64(len(inlet)))
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	// Candidates are pushed slightly inward along the initial velocity.
	s.push = mesh.Vec3{}
	if vn := vel.Norm(); vn > 0 {
		s.push = vel.Scale(1e-6 / vn)
	}
	return true
}

// next returns the sequence's next candidate: a random convex combination
// of a random inlet node and the centroid.
func (s *injectScratch) next(m *mesh.Mesh) mesh.Vec3 {
	inlet := m.InletNodes
	nd := inlet[s.rng.Intn(len(inlet))]
	a := 0.15 + 0.7*s.rng.Float64()
	pos := m.Coords[nd].Scale(1 - a).Add(s.centroid.Scale(a))
	if s.push != (mesh.Vec3{}) {
		pos = pos.Add(s.push)
	}
	return pos
}

// dropClaimed removes from the claims every index a lower rank also
// claimed (ties go to the lowest claimant). Both lists ascend, so one
// merge walk does it.
func (s *injectScratch) dropClaimed(lower []int32) {
	kept, j := 0, 0
	for k, i := range s.idx {
		for j < len(lower) && lower[j] < i {
			j++
		}
		if j < len(lower) && lower[j] == i {
			continue
		}
		s.idx[kept], s.elems[kept] = i, s.elems[k]
		kept++
	}
	s.idx, s.elems = s.idx[:kept], s.elems[:kept]
}

// NewTracker builds a tracker over the given element subset of m
// (nil = whole mesh).
func NewTracker(m *mesh.Mesh, elems []int32, species Props, fluid FluidProps) *Tracker {
	t := &Tracker{
		Mesh:    m,
		Loc:     NewLocator(m, elems, 32),
		Fluid:   fluid,
		Species: species,
		Active:  &ParticleStore{},
		outletZ: outletPlane(m),
	}
	t.stepBody = func(lo, hi int) {
		s := t.Active
		fates := t.fates
		var b newmarkBlock // lane scratch: stays on this goroutine's stack
		for i0 := lo; i0 < hi; i0 += newmarkLanes {
			n := min(newmarkLanes, hi-i0)
			for l := 0; l < n; l++ {
				i := i0 + l
				b.pos[l], b.vel[l], b.acc[l] = s.Pos[i], s.Vel[i], s.Acc[i]
				b.uf[l] = t.Loc.InterpolateIDW(int(s.Elem[i]), s.Pos[i], t.stepVel)
			}
			newmarkStepLanes(&b, n, &t.stepPre)
			for l := 0; l < n; l++ {
				i := i0 + l
				s.Pos[i], s.Vel[i], s.Acc[i] = b.pos[l], b.vel[l], b.acc[l]
				if elem, ok := t.Loc.Locate(b.pos[l], s.Elem[i]); ok {
					s.Elem[i] = elem
					fates[i] = 0
				} else {
					s.Elem[i] = -1
					fates[i] = 1
				}
			}
		}
	}
	t.locateBody = func(lo, hi int) {
		s := &t.inj
		for i := lo; i < hi; i++ {
			e, ok := t.Loc.Locate(s.chunk[i], -1)
			if !ok {
				e = -1
			}
			s.chunkElems[i] = e
		}
	}
	return t
}

// SetPool attaches a worker pool; Step then shards the population across
// it. A nil pool (the default) keeps Step serial.
func (t *Tracker) SetPool(p *tasking.Pool) { t.pool = p }

// outletPlane computes the height below which a lost particle counts as
// exited rather than deposited.
func outletPlane(m *mesh.Mesh) float64 {
	if len(m.OutletNodes) == 0 {
		return math.Inf(-1)
	}
	z := 0.0
	for _, nd := range m.OutletNodes {
		z += m.Coords[nd].Z
	}
	return z/float64(len(m.OutletNodes)) + 1e-9
}

func (t *Tracker) adopt(i int, pos mesh.Vec3, vel mesh.Vec3, elem int32, seed int64) {
	t.Active.Append(Particle{
		ID:           int64(i) + seed<<20,
		NewmarkState: NewmarkState{Pos: pos, Vel: vel},
		Elem:         elem,
	})
}

// mayHostRelease reports whether a candidate of any release can land in
// this subdomain; it is computed once per tracker. Every candidate lies in
// the inlet nodes' box widened by the 1e-6 m push (the locator's tol
// covers the rounding of the combination), and Locate accepts a point
// only inside an own padded element box, so a subdomain none of whose
// boxes meets that release box locates no candidate of any release.
func (t *Tracker) mayHostRelease() bool {
	s := &t.inj
	if s.host == 0 {
		s.host = -1
		if inlet := t.Mesh.InletNodes; len(inlet) > 0 {
			lo := t.Mesh.Coords[inlet[0]]
			hi := lo
			for _, nd := range inlet[1:] {
				c := t.Mesh.Coords[nd]
				lo = mesh.Vec3{X: min(lo.X, c.X), Y: min(lo.Y, c.Y), Z: min(lo.Z, c.Z)}
				hi = mesh.Vec3{X: max(hi.X, c.X), Y: max(hi.Y, c.Y), Z: max(hi.Z, c.Z)}
			}
			w := 1e-6 + t.Loc.tol
			pad := mesh.Vec3{X: w, Y: w, Z: w}
			if t.Loc.boxesMeet(lo.Sub(pad), hi.Add(pad)) {
				s.host = 1
			}
		}
	}
	return s.host > 0
}

// locateRelease is the first half of every injection: it streams the
// release's deterministic candidates through this subdomain's locator a
// chunk at a time and keeps the located ones as ascending (index,
// element) pairs in t.inj.idx and t.inj.elems. A subdomain that cannot
// host the release generates nothing. It returns how many it located.
func (t *Tracker) locateRelease(n int, seed int64, vel mesh.Vec3) int {
	if !t.mayHostRelease() {
		n = 0
	}
	return t.locateAll(n, seed, vel)
}

// locateAll is locateRelease without the host test. The claim lists are
// presized to the release once: growing them by appends would copy a
// bolus's lists several times over.
func (t *Tracker) locateAll(n int, seed int64, vel mesh.Vec3) int {
	s := &t.inj
	s.idx, s.elems = s.idx[:0], s.elems[:0]
	if n <= 0 || !s.begin(t.Mesh, seed, vel) {
		return 0
	}
	s.idx, s.elems = slices.Grow(s.idx, n), slices.Grow(s.elems, n)
	if c := min(n, injectChunk); cap(s.chunk) < c {
		s.chunk, s.chunkElems = make([]mesh.Vec3, c), make([]int32, c)
	}
	for lo := 0; lo < n; lo += injectChunk {
		c := min(injectChunk, n-lo)
		for i := range s.chunk[:c] {
			s.chunk[i] = s.next(t.Mesh)
		}
		if t.pool != nil && c > injectShard {
			t.pool.ParallelFor(c, injectShard, t.locateBody)
		} else {
			t.locateBody(0, c)
		}
		for i, e := range s.chunkElems[:c] {
			if e >= 0 {
				s.idx = append(s.idx, int32(lo+i))
				s.elems = append(s.elems, e)
			}
		}
	}
	return len(s.idx)
}

// adoptRelease is the second half: it adopts the candidates left in
// t.inj.idx, growing the store once for all of them, and returns the
// count. Only their indices were kept, so it regenerates the sequence up
// to the last one.
func (t *Tracker) adoptRelease(n int, seed int64, vel mesh.Vec3) int {
	s := &t.inj
	adopted := len(s.idx)
	if adopted > 0 {
		t.Active.reserve(adopted)
		s.begin(t.Mesh, seed, vel)
		for i, k := 0, 0; k < adopted; i++ {
			pos := s.next(t.Mesh)
			if int(s.idx[k]) == i {
				t.adopt(i, pos, vel, s.elems[k], seed)
				k++
			}
		}
	}
	t.nextID = int64(n) + seed<<20
	s.trim()
	return adopted
}

// InjectAtInlet is the single-tracker release: it seeds n particles on
// the inlet cross-section with the given initial velocity, jittered
// deterministically by seed, adopts those this tracker's elements can
// locate and discards the rest, returning the number adopted. It
// coordinates with nothing, so two trackers sharing an inlet would both
// adopt a candidate on their common boundary; every ranked run releases
// through InjectAtInletCollective instead.
func (t *Tracker) InjectAtInlet(n int, seed int64, vel mesh.Vec3) int {
	t.locateRelease(n, seed, vel)
	return t.adoptRelease(n, seed, vel)
}

// Step advances every active particle by dt through the nodal velocity
// field (global node id -> fluid velocity). Particles that leave the
// subdomain move to the lost list; call TakeLost (or Migrate)
// afterwards.
//
// With a pool attached the population is sharded into fixed-size index
// ranges executed concurrently; each shard records fates for its own
// disjoint index range, and the subsequent merge walks indices in order,
// so counts, IDs and even floating-point results match the serial path
// exactly under any worker count.
func (t *Tracker) Step(dt float64, velField func(node int32) mesh.Vec3) {
	s := t.Active
	n := s.Len()
	if n == 0 {
		return
	}
	if cap(t.fates) < n {
		t.fates = make([]uint8, n)
	}
	fates := t.fates[:n]
	t.fates = fates

	// Parameters flow to the prebuilt sweep body through the slots; the
	// velocity-field reference is dropped afterwards so the caller's
	// closure is not retained between steps.
	t.stepPre = newmarkConstsFor(t.Fluid, t.Species, dt)
	t.stepVel = velField
	if t.pool != nil && n > stepShardSize {
		t.pool.ParallelFor(n, stepShardSize, t.stepBody)
	} else {
		t.stepBody(0, n)
	}
	t.stepVel = nil
	t.WorkUnits += int64(n)

	// Deterministic merge: each shard recorded fates for its own disjoint
	// index range; walk them in index order regardless of which worker
	// produced them.
	nLost := 0
	for _, f := range fates {
		if f != 0 {
			nLost++
		}
	}
	if nLost == 0 {
		return
	}
	for i := 0; i < n; i++ {
		if fates[i] != 0 {
			t.lost = append(t.lost, s.At(i))
		}
	}
	s.Compact(func(i int) bool { return fates[i] == 0 })
}

// TakeLost returns and clears the particles that left the subdomain this
// step.
func (t *Tracker) TakeLost() []Particle {
	l := t.lost
	t.lost = nil
	return l
}

// absorbEncoded adopts foreign particles into this subdomain, decoding
// each straight out of the transport buffer — no intermediate []Particle
// is materialized, so adoption allocates nothing beyond the store's
// amortized growth. It returns how many were adopted; unlocatable
// particles are ignored (the sender keeps responsibility for their
// fate).
func (t *Tracker) absorbEncoded(data []float64) int {
	adopted := 0
	for i := 0; i+particleWireLen <= len(data); i += particleWireLen {
		p := decodeParticle(data[i : i+particleWireLen])
		if elem, ok := t.Loc.Locate(p.Pos, -1); ok {
			p.Elem = elem
			t.Active.Append(p)
			adopted++
		}
	}
	return adopted
}

// Finalize classifies particles nobody could adopt: below the outlet
// plane they exited the bronchial tree, otherwise they deposited on the
// airway wall.
func (t *Tracker) Finalize(unclaimed []Particle) {
	for _, p := range unclaimed {
		if p.Pos.Z <= t.outletZ {
			t.ExitedCount++
		} else {
			t.DepositedCount++
		}
	}
}

// Counts summarizes the tracker population.
func (t *Tracker) Counts() (active, deposited, exited int) {
	return t.Active.Len(), t.DepositedCount, t.ExitedCount
}

// String describes the tracker state.
func (t *Tracker) String() string {
	return fmt.Sprintf("tracker{active=%d lost=%d deposited=%d exited=%d work=%d}",
		t.Active.Len(), len(t.lost), t.DepositedCount, t.ExitedCount, t.WorkUnits)
}

// particleWireLen is the transport encoding width of one particle:
// id, pos, vel, acc as float64s.
const particleWireLen = 10

// encodeParticles flattens particles for transport.
func encodeParticles(ps []Particle) []float64 {
	return encodeParticlesInto(make([]float64, 0, len(ps)*particleWireLen), ps)
}

// encodeParticlesInto appends the wire encoding to dst (typically a
// reusable scratch resliced to [:0]) and returns it.
func encodeParticlesInto(dst []float64, ps []Particle) []float64 {
	for _, p := range ps {
		dst = append(dst,
			float64(p.ID),
			p.Pos.X, p.Pos.Y, p.Pos.Z,
			p.Vel.X, p.Vel.Y, p.Vel.Z,
			p.Acc.X, p.Acc.Y, p.Acc.Z,
		)
	}
	return dst
}

// decodeParticle reads one particle from its wire slot (Elem unknown:
// the adopter re-locates).
func decodeParticle(d []float64) Particle {
	return Particle{
		ID: int64(d[0]),
		NewmarkState: NewmarkState{
			Pos: mesh.Vec3{X: d[1], Y: d[2], Z: d[3]},
			Vel: mesh.Vec3{X: d[4], Y: d[5], Z: d[6]},
			Acc: mesh.Vec3{X: d[7], Y: d[8], Z: d[9]},
		},
		Elem: -1,
	}
}

// decodeParticles reverses encodeParticles.
func decodeParticles(data []float64) []Particle {
	n := len(data) / particleWireLen
	out := make([]Particle, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, decodeParticle(data[i*particleWireLen:]))
	}
	return out
}
