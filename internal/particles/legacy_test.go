package particles

// Test oracles: the seed's particle engine, kept out of the production
// build. The equivalence and locator suites hold the live engine to
// these; the A/B benchmarks below time it against them.

import (
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// mapLocator is the seed's locator: map[int][]int32 buckets scanned cell
// by cell over the 27-cell neighborhood. It bins into the same grid as
// the flat Locator (whose geometry, Contains and InterpolateIDW it
// borrows) and enumerates candidates in the same order, so the two must
// locate identically.
type mapLocator struct {
	*Locator
	buckets map[int][]int32
}

// NewLocatorMap builds the map-bucket oracle over the given elements.
func NewLocatorMap(m *mesh.Mesh, elems []int32, cellsPerAxis int) *mapLocator {
	l := &mapLocator{Locator: newGrid(m, elems, cellsPerAxis), buckets: make(map[int][]int32)}
	for _, e := range l.elems {
		elo, ehi := m.ElemBox(int(e))
		l.forCells(elo, ehi, func(key int) {
			l.buckets[key] = append(l.buckets[key], e)
		})
	}
	return l
}

// Locate is Locator.Locate over the buckets: hint, own cell, then the 26
// neighbors in dz, dy, dx order.
func (l *mapLocator) Locate(p mesh.Vec3, hint int32) (int32, bool) {
	if hint >= 0 && l.Contains(int(hint), p) {
		return hint, true
	}
	ix, iy, iz := l.cellIndex(p)
	if ix < 0 || iy < 0 || iz < 0 || ix >= l.nx || iy >= l.ny || iz >= l.nz {
		return -1, false
	}
	for _, e := range l.buckets[l.key(ix, iy, iz)] {
		if l.Contains(int(e), p) {
			return e, true
		}
	}
	// Check the 26-cell neighborhood: bounding boxes straddle cells.
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				x, y, z := ix+dx, iy+dy, iz+dz
				if x < 0 || y < 0 || z < 0 || x >= l.nx || y >= l.ny || z >= l.nz {
					continue
				}
				for _, e := range l.buckets[l.key(x, y, z)] {
					if l.Contains(int(e), p) {
						return e, true
					}
				}
			}
		}
	}
	return -1, false
}

// LegacyTracker is the seed's serial array-of-structs particle engine,
// preserved byte-for-byte in behaviour: an AoS []Particle population, a
// map-bucket locator, and a strictly sequential Step. It is the reference
// implementation the equivalence suite checks the parallel SoA Tracker
// against, and the baseline BenchmarkTrackerStep compares throughput
// against. It is deliberately not optimized. Since the lane-batched
// kernel it shares NewmarkStep with the Tracker, so it is an oracle for
// the SoA store and the sharding, not for the drag chain (that is
// newmarkStepRef).
type LegacyTracker struct {
	Mesh    *mesh.Mesh
	Loc     *mapLocator
	Fluid   FluidProps
	Species Props

	Active []Particle
	lost   []Particle

	DepositedCount int
	ExitedCount    int
	WorkUnits      int64

	outletZ float64
}

// NewLegacyTracker builds the reference tracker over the given element
// subset of m (nil = whole mesh), using the map-bucket locator.
func NewLegacyTracker(m *mesh.Mesh, elems []int32, species Props, fluid FluidProps) *LegacyTracker {
	return &LegacyTracker{
		Mesh:    m,
		Loc:     NewLocatorMap(m, elems, 32),
		Fluid:   fluid,
		Species: species,
		outletZ: outletPlane(m),
	}
}

// legacyCandidates is the seed's release generator, a copy of its own so
// that a change to the tracker's streamed generator cannot pass on both
// sides of the equivalence suite.
func legacyCandidates(m *mesh.Mesh, n int, seed int64, vel mesh.Vec3) []mesh.Vec3 {
	inlet := m.InletNodes
	if len(inlet) == 0 {
		return nil
	}
	var centroid mesh.Vec3
	for _, nd := range inlet {
		centroid = centroid.Add(m.Coords[nd])
	}
	centroid = centroid.Scale(1 / float64(len(inlet)))
	rng := rand.New(rand.NewSource(seed))
	var push mesh.Vec3
	if vn := vel.Norm(); vn > 0 {
		push = vel.Scale(1e-6 / vn)
	}
	out := make([]mesh.Vec3, 0, n)
	for i := 0; i < n; i++ {
		nd := inlet[rng.Intn(len(inlet))]
		a := 0.15 + 0.7*rng.Float64()
		pos := m.Coords[nd].Scale(1 - a).Add(centroid.Scale(a))
		if push != (mesh.Vec3{}) {
			pos = pos.Add(push)
		}
		out = append(out, pos)
	}
	return out
}

// InjectAtInlet seeds n particles exactly like Tracker.InjectAtInlet:
// both draw from the same deterministic candidate sequence and assign the
// same IDs.
func (t *LegacyTracker) InjectAtInlet(n int, seed int64, vel mesh.Vec3) int {
	adopted := 0
	for i, pos := range legacyCandidates(t.Mesh, n, seed, vel) {
		elem, ok := t.Loc.Locate(pos, -1)
		if !ok {
			continue
		}
		t.Active = append(t.Active, Particle{
			ID:           int64(i) + seed<<20,
			NewmarkState: NewmarkState{Pos: pos, Vel: vel},
			Elem:         elem,
		})
		adopted++
	}
	return adopted
}

// Step advances every active particle by dt, serially, in the seed's
// original AoS loop.
func (t *LegacyTracker) Step(dt float64, velField func(node int32) mesh.Vec3) {
	kept := t.Active[:0]
	for i := range t.Active {
		p := t.Active[i]
		uf := t.Loc.InterpolateIDW(int(p.Elem), p.Pos, velField)
		NewmarkStep(&p.NewmarkState, t.Fluid, t.Species, uf, dt)
		t.WorkUnits++
		elem, ok := t.Loc.Locate(p.Pos, p.Elem)
		if ok {
			p.Elem = elem
			kept = append(kept, p)
			continue
		}
		p.Elem = -1
		t.lost = append(t.lost, p)
	}
	t.Active = kept
}

// TakeLost returns and clears the particles that left the subdomain this
// step.
func (t *LegacyTracker) TakeLost() []Particle {
	l := t.lost
	t.lost = nil
	return l
}

// Finalize classifies unclaimed particles like Tracker.Finalize.
func (t *LegacyTracker) Finalize(unclaimed []Particle) {
	for _, p := range unclaimed {
		if p.Pos.Z <= t.outletZ {
			t.ExitedCount++
		} else {
			t.DepositedCount++
		}
	}
}

// Counts summarizes the tracker population.
func (t *LegacyTracker) Counts() (active, deposited, exited int) {
	return len(t.Active), t.DepositedCount, t.ExitedCount
}

// --- A/B benchmarks: the live engine against its oracles ---

// benchMesh is the default benchmark mesh for the particle engine: a
// generation-2 airway at the default resolution, the geometry the seed's
// tracker benchmark used.
func benchMesh(b *testing.B) *mesh.Mesh {
	b.Helper()
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchLocate times one no-hint lookup per probe, cycling through pts.
func benchLocate(b *testing.B, pts []mesh.Vec3, locate func(mesh.Vec3, int32) (int32, bool)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locate(pts[i%len(pts)], -1)
	}
}

// releaseLookups splits the particle_bolus benchmark workload's mesh
// (generation 2, NTheta 8, NAxial 4) two ways like the run does and
// returns, for each part, its locator and the release candidates it
// locates (hits) or fails to locate (misses): the no-hint lookups each
// rank makes during a bolus release.
func releaseLookups(b *testing.B) (locs [2]*Locator, hits, misses [2][]mesh.Vec3) {
	b.Helper()
	mc := mesh.DefaultAirwayConfig()
	mc.Generations, mc.NTheta, mc.NAxial = 2, 8, 4
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		b.Fatal(err)
	}
	p, err := partition.KWay(m.DualByNode(), nil, 2)
	if err != nil {
		b.Fatal(err)
	}
	parts := make([][]int32, 2)
	for e, part := range p.Parts {
		parts[part] = append(parts[part], int32(e))
	}
	cands := releaseCandidates(m, 4096, 1, mesh.Vec3{Z: -1})
	for r, elems := range parts {
		locs[r] = NewLocator(m, elems, 32)
		for _, c := range cands {
			if _, ok := locs[r].Locate(c, -1); ok {
				hits[r] = append(hits[r], c)
			} else {
				misses[r] = append(misses[r], c)
			}
		}
	}
	return locs, hits, misses
}

// BenchmarkLocatorFlat times the flat locator on the agreement suite's
// probe set (centroids, vertices, cell edges, near-face points, the outlet
// plane, misses; the same points BenchmarkLocatorMap walks) and on both
// sides of a bolus release: the inlet rank's lookups, which hit, and the
// other rank's, which miss; stale-hint is the inlet rank's search after
// the release's first particle step.
func BenchmarkLocatorFlat(b *testing.B) {
	m := benchMesh(b)
	b.Run("probes", func(b *testing.B) {
		l := NewLocator(m, nil, 32)
		benchLocate(b, boundaryProbePoints(m, l), l.Locate)
	})
	locs, hits, misses := releaseLookups(b)
	owner := 0
	if len(hits[1]) > len(hits[0]) {
		owner = 1
	}
	b.Run("subdomain-hit", func(b *testing.B) {
		benchLocate(b, hits[owner], locs[owner].Locate)
	})
	b.Run("subdomain-miss", func(b *testing.B) {
		benchLocate(b, misses[1-owner], locs[1-owner].Locate)
	})
	b.Run("stale-hint", func(b *testing.B) {
		l := locs[owner]
		pts, hints := steppedRelease(b, l)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(pts)
			l.Locate(pts[k], hints[k])
		}
	})
}

// steppedRelease injects a release on l's subdomain and advances it one
// particle step through the flow of one Navier-Stokes step (solved on one
// rank over the whole mesh), as the bolus run's first step does. It
// returns every particle's new position with its pre-step element: the
// Locate(p, previous element) searches Tracker.Step makes, about 72 % of
// which miss their hint.
func steppedRelease(b *testing.B, l *Locator) (pts []mesh.Vec3, hints []int32) {
	b.Helper()
	m := l.m
	p, err := partition.KWay(m.DualByNode(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 1)
	if err != nil {
		b.Fatal(err)
	}
	world, err := simmpi.NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := navierstokes.DefaultConfig()
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(1)
		defer pool.Close()
		ns, err := navierstokes.NewSolver(m, rms[0], r.Comm, pool, cfg, navierstokes.DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		if _, err := ns.Step(); err != nil {
			panic(err)
		}
		tr := NewTracker(m, l.elems, aerosol(), AirAt20C())
		tr.InjectAtInlet(4096, 1, cfg.InletVelocity)
		before := make(map[int64]int32, tr.Active.Len())
		for i, id := range tr.Active.ID {
			before[id] = tr.Active.Elem[i]
		}
		tr.Step(cfg.Props.Dt, ns.VelocityAt)
		for i, id := range tr.Active.ID {
			pts, hints = append(pts, tr.Active.Pos[i]), append(hints, before[id])
		}
		for _, q := range tr.TakeLost() {
			pts, hints = append(pts, q.Pos), append(hints, before[q.ID])
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return pts, hints
}

func BenchmarkLocatorMap(b *testing.B) {
	m := benchMesh(b)
	l := NewLocatorMap(m, nil, 32)
	benchLocate(b, boundaryProbePoints(m, l.Locator), l.Locate)
}

func benchLocatorBuild(b *testing.B, build func(m *mesh.Mesh)) {
	b.Helper()
	m := benchMesh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(m)
	}
}

func BenchmarkLocatorBuildFlat(b *testing.B) {
	benchLocatorBuild(b, func(m *mesh.Mesh) { NewLocator(m, nil, 32) })
}

func BenchmarkLocatorBuildMap(b *testing.B) {
	benchLocatorBuild(b, func(m *mesh.Mesh) { NewLocatorMap(m, nil, 32) })
}

// BenchmarkTrackerStep races the seed's serial AoS engine against the SoA
// engine, serial and sharded over 2/4/8 workers. Every iteration restores
// the same injected population and advances it one step, so all variants
// do identical physics work.
func BenchmarkTrackerStep(b *testing.B) {
	m := benchMesh(b)
	const nParticles = 5000
	down := func(node int32) mesh.Vec3 { return mesh.Vec3{Z: -1} }

	b.Run("legacy-aos-serial", func(b *testing.B) {
		tr := NewLegacyTracker(m, nil, aerosol(), AirAt20C())
		tr.InjectAtInlet(nParticles, 1, mesh.Vec3{Z: -1})
		snapshot := append([]Particle(nil), tr.Active...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Active = append(tr.Active[:0], snapshot...)
			tr.Step(1e-4, down)
			tr.TakeLost()
		}
	})

	soa := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			tr := NewTracker(m, nil, aerosol(), AirAt20C())
			if workers > 0 {
				pool := tasking.NewPool(workers)
				defer pool.Close()
				tr.SetPool(pool)
			}
			tr.InjectAtInlet(nParticles, 1, mesh.Vec3{Z: -1})
			snapshot := tr.Active.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Active.CopyFrom(snapshot)
				tr.Step(1e-4, down)
				tr.TakeLost()
			}
		}
	}
	b.Run("soa-serial", soa(0))
	b.Run("soa-parallel-2", soa(2))
	b.Run("soa-parallel-4", soa(4))
	b.Run("soa-parallel-8", soa(8))
}
