package fem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// collapsed returns the reference element of kind k flattened into the
// z = 0 plane: its Jacobian's third column is exactly zero, so det J is.
func collapsed(k mesh.Kind) []mesh.Vec3 {
	coords := refCoords(k)
	for i := range coords {
		coords[i].Z = 0
	}
	return coords
}

// TestJacobianSingularZeroesGradients: on a collapsed element Jacobian
// returns det 0 and writes zero gradients, not whatever the buffer held
// from the previous point or element.
func TestJacobianSingularZeroesGradients(t *testing.T) {
	for _, k := range allKinds {
		b := BasisFor(k)
		var gradN [MaxElemNodes][3]float64
		if det := Jacobian(&b.QP[0], b.NEN, refCoords(k), &gradN); det == 0 {
			t.Fatalf("%v: reference element is singular", k)
		}
		for q := range b.QP {
			if det := Jacobian(&b.QP[q], b.NEN, collapsed(k), &gradN); det != 0 {
				t.Fatalf("%v qp %d: collapsed element has det J = %g", k, q, det)
			}
			for a := 0; a < b.NEN; a++ {
				if gradN[a] != [3]float64{} {
					t.Fatalf("%v qp %d: gradN[%d] = %v on a singular Jacobian, want zeros", k, q, a, gradN[a])
				}
			}
		}
	}
}

func TestGeomLayout(t *testing.T) {
	longest := 0
	for _, k := range allKinds {
		b := BasisFor(k)
		want := len(b.QP)
		if k == mesh.Tet4 {
			want = 1
		}
		if b.records != want {
			t.Errorf("%v: %d records per element, want %d", k, b.records, want)
		}
		if b.records > 1 && b.recStep != recordLen(b.NEN) || b.records == 1 && b.recStep != 0 {
			t.Errorf("%v: record step %d with %d records", k, b.recStep, b.records)
		}
		longest = max(longest, geomLen(k))
	}
	if longest != MaxGeomLen {
		t.Fatalf("MaxGeomLen = %d, longest element records %d", MaxGeomLen, longest)
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// elemInput is one element's kernel input: coordinates, nodal
// velocities and pressure, and fluid properties.
type elemInput struct {
	kind         mesh.Kind
	coords       []mesh.Vec3
	uconv, uold3 [MaxElemNodes]mesh.Vec3
	p            [MaxElemNodes]float64
	props        FluidProps
}

func randomFields(rng *rand.Rand, in *elemInput) {
	v := func() float64 { return 4 * (rng.Float64() - 0.5) }
	for a := range in.uconv {
		in.uconv[a] = mesh.Vec3{X: v(), Y: v(), Z: v()}
		in.uold3[a] = mesh.Vec3{X: v(), Y: v(), Z: v()}
		in.p[a] = 100 * v()
	}
}

// matchOracle runs every record-reading kernel on records g — or, when g
// is nil, the coordinate forms on in.coords — and the pre-record oracles
// on in.coords, and reports the first output whose bits differ.
func matchOracle(t *testing.T, in *elemInput, g []float64) {
	t.Helper()
	k := in.kind
	nen := BasisFor(k).NEN
	var got, want Scratch
	copy(got.Coords[:], in.coords)
	copy(want.Coords[:], in.coords)
	for _, s := range []*Scratch{&got, &want} {
		s.UConv, s.UOld3, s.P = in.uconv, in.uold3, in.p
	}
	check := func(what string, n int, gv, wv func(i int) float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if !sameBits(gv(i), wv(i)) {
				t.Fatalf("%v, props %+v, coordinate form %v: %s[%d] = %v, oracle %v",
					k, in.props, g == nil, what, i, gv(i), wv(i))
			}
		}
	}
	ke := func(s *Scratch) func(int) float64 { return func(i int) float64 { return s.Ke[i] } }
	fe := func(s *Scratch) func(int) float64 { return func(i int) float64 { return s.Fe[i] } }
	fe3 := func(s *Scratch) func(int) float64 { return func(i int) float64 { return s.Fe3[i/nen][i%nen] } }
	vec := func(v mesh.Vec3) func(int) float64 {
		return func(i int) float64 { return [3]float64{v.X, v.Y, v.Z}[i] }
	}

	if g == nil {
		MomentumElement3(k, nen, in.props, &got)
	} else {
		MomentumGeom(k, nen, g, in.props, &got)
	}
	oracleMomentumElement3(k, nen, in.props, &want)
	check("momentum Ke", nen*nen, ke(&got), ke(&want))
	check("momentum Fe3", 3*nen, fe3(&got), fe3(&want))

	if g == nil {
		LaplacianElement(k, nen, &got)
	} else {
		LaplacianGeom(k, nen, g, &got)
	}
	oracleLaplacianElement(k, nen, &want)
	check("laplacian Ke", nen*nen, ke(&got), ke(&want))

	if g == nil {
		DivergenceRHS(k, nen, in.props, &got)
	} else {
		DivergenceGeom(k, nen, g, in.props, &got)
	}
	oracleDivergenceRHS(k, nen, in.props, &want)
	check("divergence Fe", nen, fe(&got), fe(&want))

	var sgs mesh.Vec3
	if g == nil {
		sgs = SGSElement(k, nen, in.props, &got)
	} else {
		sgs = SGSGeom(k, nen, g, in.props, &got)
	}
	check("SGS", 3, vec(sgs), vec(oracleSGSElement(k, nen, in.props, &want)))

	if g == nil {
		return // the lumped row and gradient have no coordinate form
	}
	var slot [MaxElemNodes * 4]float64
	oracleCorrection(k, nen, in.p[:], &want, &slot)
	LumpedGeom(k, nen, g, &got)
	check("lumped row", nen, fe(&got), func(i int) float64 { return slot[i*4] })
	GradientGeom(k, nen, g, &got)
	check("gradient", 3*nen, fe3(&got), func(i int) float64 { return slot[(i%nen)*4+1+i/nen] })
}

// TestCachedKernelsMatchOracle: on every element of the generated
// airways, the kernels reading records packed in a Geometry reproduce
// the pre-record kernels bit for bit.
func TestCachedKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for gens := 0; gens <= 4; gens++ {
		for _, jitter := range []float64{0, 0.05} {
			for _, funnel := range []bool{true, false} {
				cfg := mesh.DefaultAirwayConfig()
				cfg.Generations, cfg.Jitter, cfg.WithInletFunnel = gens, jitter, funnel
				m, err := mesh.GenerateAirway(cfg)
				if err != nil {
					t.Fatal(err)
				}
				geom := NewGeometry(m.Kinds)
				for e := 0; e < m.NumElems(); e++ {
					in := elemInput{kind: m.Kinds[e], props: FluidProps{Rho: 1.204, Mu: 1.82e-5, Dt: 1e-4, SUPG: e%2 == 0}}
					for _, nd := range m.ElemNodes(e) {
						in.coords = append(in.coords, m.Coords[nd])
					}
					FillGeom(in.kind, in.coords, geom.Elem(e))
					randomFields(rng, &in)
					matchOracle(t, &in, geom.Elem(e))
				}
			}
		}
	}
}

// FuzzElementGeom: for random elements of every kind — valid, inverted
// and collapsed — with random velocities and fluid properties, both the
// record-reading kernels and the coordinate forms equal the oracles.
func FuzzElementGeom(f *testing.F) {
	for k := range allKinds {
		for shape := 0; shape < 4; shape++ {
			f.Add(uint8(k), uint8(shape), int64(7*k+shape), 0.3)
		}
	}
	f.Add(uint8(1), uint8(0), int64(1), 0.0)
	f.Fuzz(func(t *testing.T, kind, shape uint8, seed int64, jitter float64) {
		if math.IsNaN(jitter) || math.IsInf(jitter, 0) {
			jitter = 0
		}
		jitter = math.Mod(jitter, 2)
		rng := rand.New(rand.NewSource(seed))
		in := elemInput{kind: allKinds[int(kind)%len(allKinds)]}
		// Reference element, jittered, at a size from 1e-4 to 1e2.
		size := math.Pow(10, -4+6*rng.Float64())
		for _, c := range refCoords(in.kind) {
			j := func() float64 { return jitter * (rng.Float64() - 0.5) }
			in.coords = append(in.coords, mesh.Vec3{X: c.X + j(), Y: c.Y + j(), Z: c.Z + j()}.Scale(size))
		}
		switch shape % 4 {
		case 1: // inverted: mirrored, flipping the sign of det J
			for i := range in.coords {
				in.coords[i].X = -in.coords[i].X
			}
		case 2: // collapsed into the z = 0 plane: det J == 0 exactly
			for i := range in.coords {
				in.coords[i].Z = 0
			}
		case 3: // collapsed onto a repeated node
			in.coords[1] = in.coords[0]
		}
		in.props = FluidProps{
			Rho:  0.5 + 1.5*rng.Float64(),
			Mu:   1e-2 * rng.Float64(),
			Dt:   math.Pow(10, -5+4*rng.Float64()),
			SUPG: rng.Intn(2) == 0,
		}
		randomFields(rng, &in)

		var g [MaxGeomLen]float64
		FillGeom(in.kind, in.coords, g[:])
		matchOracle(t, &in, g[:])
		matchOracle(t, &in, nil)
	})
}
