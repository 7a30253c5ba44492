package particles

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
)

func aerosol() Props {
	// A 10-micron water droplet — typical inhaler aerosol scale.
	return Props{Diameter: 10e-6, Density: 1000}
}

func TestMass(t *testing.T) {
	p := Props{Diameter: 2, Density: 3}
	want := 3 * math.Pi * 8 / 6
	if math.Abs(p.Mass()-want) > 1e-12 {
		t.Fatalf("mass=%g, want %g", p.Mass(), want)
	}
}

func TestGanserCdStokesLimit(t *testing.T) {
	// As Re -> 0, Cd*Re -> 24 (Stokes).
	for _, re := range []float64{1e-6, 1e-4, 1e-2} {
		cdre := GanserCd(re) * re
		if math.Abs(cdre-24) > 0.5 {
			t.Fatalf("Cd*Re at Re=%g is %g, want ~24", re, cdre)
		}
	}
}

func TestGanserCdDecreasesWithRe(t *testing.T) {
	prev := math.Inf(1)
	for _, re := range []float64{0.1, 1, 10, 100, 1000} {
		cd := GanserCd(re)
		if cd >= prev {
			t.Fatalf("Cd should decrease over this Re range: Cd(%g)=%g >= %g", re, cd, prev)
		}
		prev = cd
	}
	// Newton regime plateau: Cd(1e5) near 0.44.
	if cd := GanserCd(1e5); cd < 0.3 || cd > 0.6 {
		t.Fatalf("Cd(1e5)=%g, want ~0.43", cd)
	}
}

func TestDragForceStokesForm(t *testing.T) {
	f := AirAt20C()
	p := aerosol()
	rel := mesh.Vec3{X: 1e-4} // tiny slip => Stokes regime
	got := DragForce(f, p, rel, mesh.Vec3{})
	want := 3 * math.Pi * f.Mu * p.Diameter * rel.X
	if math.Abs(got.X-want) > 0.05*want {
		t.Fatalf("drag %g, want ~%g (Stokes)", got.X, want)
	}
	if got.Y != 0 || got.Z != 0 {
		t.Fatal("drag must align with slip")
	}
}

func TestDragForceZeroSlip(t *testing.T) {
	got := DragForce(AirAt20C(), aerosol(), mesh.Vec3{}, mesh.Vec3{})
	if got.Norm() != 0 {
		t.Fatalf("zero slip must give zero drag, got %v", got)
	}
}

func TestGravityBuoyancyRatio(t *testing.T) {
	f := AirAt20C()
	p := aerosol()
	g := GravityForce(f, p)
	b := BuoyancyForce(f, p)
	// Buoyancy opposes gravity scaled by density ratio (eq. 5).
	wantRatio := -f.Rho / p.Density
	if math.Abs(b.Z/g.Z-wantRatio) > 1e-12 {
		t.Fatalf("buoyancy/gravity = %g, want %g", b.Z/g.Z, wantRatio)
	}
}

func TestNewmarkSettlesToStokesVelocity(t *testing.T) {
	// Integrate a particle in still air; it must reach the analytic
	// terminal velocity.
	f := AirAt20C()
	p := aerosol()
	st := NewmarkState{}
	dt := 1e-4 // the paper's time step
	for i := 0; i < 200; i++ {
		NewmarkStep(&st, f, p, mesh.Vec3{}, dt)
	}
	vt := StokesSettlingVelocity(f, p)
	if math.Abs(-st.Vel.Z-vt) > 0.05*vt {
		t.Fatalf("settled at %g m/s, want ~%g m/s", -st.Vel.Z, vt)
	}
	if st.Pos.Z >= 0 {
		t.Fatal("particle should have fallen")
	}
}

func TestNewmarkFollowsFluid(t *testing.T) {
	// In a uniform wind with no gravity the particle relaxes to the
	// fluid velocity.
	f := AirAt20C()
	f.Gravity = mesh.Vec3{}
	p := aerosol()
	uf := mesh.Vec3{X: 2}
	st := NewmarkState{}
	for i := 0; i < 400; i++ {
		NewmarkStep(&st, f, p, uf, 1e-4)
	}
	if math.Abs(st.Vel.X-2) > 0.02 {
		t.Fatalf("particle velocity %g, want ~2", st.Vel.X)
	}
}

func airway(t testing.TB, gens int) *mesh.Mesh {
	t.Helper()
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = gens
	cfg.NTheta = 8
	cfg.NAxial = 4
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLocatorFindsCentroids(t *testing.T) {
	m := airway(t, 1)
	loc := NewLocator(m, nil, 24)
	misses := 0
	for e := 0; e < m.NumElems(); e += 3 {
		c := m.Centroid(e)
		found, ok := loc.Locate(c, -1)
		if !ok {
			misses++
			continue
		}
		if !loc.Contains(int(found), c) {
			t.Fatalf("Locate returned element %d not containing the point", found)
		}
	}
	// Centroids of thin curved elements can fall outside every element's
	// tet decomposition only in pathological cases; allow a tiny miss
	// rate.
	if misses > m.NumElems()/100 {
		t.Fatalf("%d/%d centroid locations missed", misses, m.NumElems()/3)
	}
}

func TestLocatorHint(t *testing.T) {
	m := airway(t, 0)
	loc := NewLocator(m, nil, 16)
	c := m.Centroid(5)
	e, ok := loc.Locate(c, 5)
	if !ok || e != 5 {
		t.Fatalf("hint not honored: got %d ok=%v", e, ok)
	}
}

func TestLocatorOutsideDomain(t *testing.T) {
	m := airway(t, 0)
	loc := NewLocator(m, nil, 16)
	if _, ok := loc.Locate(mesh.Vec3{X: 10, Y: 10, Z: 10}, -1); ok {
		t.Fatal("point far outside must not be located")
	}
}

func TestLocatorSubsetRestriction(t *testing.T) {
	m := airway(t, 0)
	// Locator restricted to even elements must not find odd ones' interiors
	// unless they overlap an even element.
	var evens []int32
	for e := 0; e < m.NumElems(); e += 2 {
		evens = append(evens, int32(e))
	}
	loc := NewLocator(m, evens, 16)
	c := m.Centroid(0)
	if e, ok := loc.Locate(c, -1); ok && e%2 != 0 {
		t.Fatalf("restricted locator returned excluded element %d", e)
	}
}

func TestInterpolateIDWExactAtNodes(t *testing.T) {
	m := airway(t, 0)
	loc := NewLocator(m, nil, 16)
	field := func(nd int32) mesh.Vec3 { return mesh.Vec3{X: float64(nd)} }
	nodes := m.ElemNodes(0)
	got := loc.InterpolateIDW(0, m.Coords[nodes[2]], field)
	if got.X != float64(nodes[2]) {
		t.Fatalf("IDW at node = %v, want %v", got.X, nodes[2])
	}
	// At the centroid the value is a convex combination of nodal values.
	c := m.Centroid(0)
	v := loc.InterpolateIDW(0, c, field)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, nd := range nodes {
		lo = math.Min(lo, float64(nd))
		hi = math.Max(hi, float64(nd))
	}
	if v.X < lo || v.X > hi {
		t.Fatalf("IDW %g outside hull [%g,%g]", v.X, lo, hi)
	}
}

func TestInjectAtInlet(t *testing.T) {
	m := airway(t, 1)
	tr := NewTracker(m, nil, aerosol(), AirAt20C())
	n := tr.InjectAtInlet(200, 1, mesh.Vec3{Z: -1})
	if n < 150 {
		t.Fatalf("only %d/200 particles injected", n)
	}
	// All injected particles sit near the inlet plane (high z).
	var inletZ float64
	for _, nd := range m.InletNodes {
		inletZ += m.Coords[nd].Z
	}
	inletZ /= float64(len(m.InletNodes))
	for _, pos := range tr.Active.Pos {
		if math.Abs(pos.Z-inletZ) > 0.02*math.Abs(inletZ)+1e-3 {
			t.Fatalf("particle at z=%g far from inlet z=%g", pos.Z, inletZ)
		}
	}
}

func TestTrackerStepMovesParticlesDownstream(t *testing.T) {
	m := airway(t, 1)
	tr := NewTracker(m, nil, aerosol(), AirAt20C())
	tr.InjectAtInlet(100, 2, mesh.Vec3{Z: -0.5})
	z0 := meanZ(tr.Active.Pos)
	down := func(node int32) mesh.Vec3 { return mesh.Vec3{Z: -1.0} } // steady downward flow
	for i := 0; i < 50; i++ {
		tr.Step(1e-3, down)
	}
	if tr.Active.Len() == 0 {
		t.Fatal("all particles lost after 50 steps")
	}
	if z1 := meanZ(tr.Active.Pos); z1 >= z0 {
		t.Fatalf("particles did not move downstream: %g -> %g", z0, z1)
	}
	if tr.WorkUnits == 0 {
		t.Fatal("work accounting missing")
	}
}

func meanZ(pos []mesh.Vec3) float64 {
	z := 0.0
	for _, p := range pos {
		z += p.Z
	}
	return z / float64(len(pos))
}

func TestTrackerLostAndFinalize(t *testing.T) {
	m := airway(t, 0)
	tr := NewTracker(m, nil, aerosol(), AirAt20C())
	tr.InjectAtInlet(50, 3, mesh.Vec3{Z: -1})
	injected := tr.Active.Len()
	// Blast particles sideways so they hit the wall.
	side := func(node int32) mesh.Vec3 { return mesh.Vec3{X: 50} }
	for i := 0; i < 200 && tr.Active.Len() > 0; i++ {
		tr.Step(1e-3, side)
		tr.Finalize(tr.TakeLost())
	}
	if tr.DepositedCount == 0 {
		t.Fatalf("no particles deposited (injected %d, still active %d)", injected, tr.Active.Len())
	}
	a, d, e := tr.Counts()
	if a+d+e != injected {
		t.Fatalf("particle bookkeeping: %d+%d+%d != %d", a, d, e, injected)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ps := []Particle{
		{ID: 7, NewmarkState: NewmarkState{
			Pos: mesh.Vec3{X: 1, Y: 2, Z: 3},
			Vel: mesh.Vec3{X: 4, Y: 5, Z: 6},
			Acc: mesh.Vec3{X: 7, Y: 8, Z: 9},
		}, Elem: 42},
	}
	got := decodeParticles(encodeParticles(ps))
	if len(got) != 1 || got[0].ID != 7 || got[0].Pos != ps[0].Pos ||
		got[0].Vel != ps[0].Vel || got[0].Acc != ps[0].Acc {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got[0].Elem != -1 {
		t.Fatal("decoded element must be unknown")
	}
}

func TestMigrateAcrossRanks(t *testing.T) {
	// Two-rank distributed tracking: partition the airway, inject on
	// whichever rank holds the inlet, advect downward, and verify
	// particles migrate across the subdomain boundary with none
	// duplicated or silently dropped.
	m := airway(t, 1)
	dual := m.DualByNode()
	p, err := partition.KWay(dual, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	elems := [2][]int32{}
	for e, part := range p.Parts {
		elems[part] = append(elems[part], int32(e))
	}
	world, err := simmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	totalInjected := make([]int, 2)
	totalFinal := make([]int, 2)
	migrated := make([]int, 2)
	err = world.Run(func(r *simmpi.Rank) {
		tr := NewTracker(m, elems[r.ID()], aerosol(), AirAt20C())
		totalInjected[r.ID()] = tr.InjectAtInlet(120, 7, mesh.Vec3{Z: -1})
		down := func(node int32) mesh.Vec3 { return mesh.Vec3{Z: -1.5} }
		peers := []int{1 - r.ID()}
		for i := 0; i < 120; i++ {
			tr.Step(1e-3, down)
			st := Migrate(r.Comm, tr, peers, 100)
			migrated[r.ID()] += st.Received
		}
		a, d, e := tr.Counts()
		totalFinal[r.ID()] = a + d + e
	})
	if err != nil {
		t.Fatal(err)
	}
	injected := totalInjected[0] + totalInjected[1]
	if injected < 80 {
		t.Fatalf("too few injected: %d", injected)
	}
	// Conservation: a migrated particle leaves the sender and joins the
	// receiver, so the global population (active+deposited+exited) must
	// equal the injected count — no duplication, no silent loss.
	finals := totalFinal[0] + totalFinal[1]
	moved := migrated[0] + migrated[1]
	if finals != injected {
		t.Fatalf("conservation violated: finals=%d moved=%d injected=%d", finals, moved, injected)
	}
	if moved == 0 {
		t.Fatal("no migration happened across the boundary")
	}
}
