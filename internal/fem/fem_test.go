package fem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

func refCoords(k mesh.Kind) []mesh.Vec3 {
	switch k {
	case mesh.Tet4:
		return []mesh.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1}}
	case mesh.Prism6:
		return []mesh.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0},
			{X: 0, Y: 0, Z: 1}, {X: 1, Y: 0, Z: 1}, {X: 0, Y: 1, Z: 1},
		}
	case mesh.Pyramid5:
		return []mesh.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 1, Y: 1, Z: 0}, {X: 0, Y: 1, Z: 0},
			{X: 0.5, Y: 0.5, Z: 1},
		}
	}
	return nil
}

func exactVolume(k mesh.Kind) float64 {
	switch k {
	case mesh.Tet4:
		return 1.0 / 6
	case mesh.Prism6:
		return 0.5
	case mesh.Pyramid5:
		return 1.0 / 3
	}
	return 0
}

var allKinds = []mesh.Kind{mesh.Tet4, mesh.Prism6, mesh.Pyramid5}

func TestPartitionOfUnity(t *testing.T) {
	for _, k := range allKinds {
		b := BasisFor(k)
		for qi, qp := range b.QP {
			sumN, sumDN := 0.0, [3]float64{}
			for a := 0; a < b.NEN; a++ {
				sumN += qp.N[a]
				for c := 0; c < 3; c++ {
					sumDN[c] += qp.DN[a][c]
				}
			}
			if math.Abs(sumN-1) > 1e-12 {
				t.Errorf("%v qp %d: sum N = %g", k, qi, sumN)
			}
			for c := 0; c < 3; c++ {
				if math.Abs(sumDN[c]) > 1e-12 {
					t.Errorf("%v qp %d: sum dN[%d] = %g", k, qi, c, sumDN[c])
				}
			}
		}
	}
}

func TestQuadratureIntegratesVolume(t *testing.T) {
	var s Scratch
	for _, k := range allKinds {
		b := BasisFor(k)
		coords := refCoords(k)
		copy(s.Coords[:], coords)
		vol := 0.0
		for q := range b.QP {
			det := Jacobian(&b.QP[q], b.NEN, s.Coords[:], &s.GradN)
			vol += b.QP[q].W * math.Abs(det)
		}
		if math.Abs(vol-exactVolume(k)) > 1e-10 {
			t.Errorf("%v: quadrature volume %g, want %g", k, vol, exactVolume(k))
		}
	}
}

func TestGradientsReproduceLinearField(t *testing.T) {
	// For a linear field f = 2x - 3y + 5z, sum_a gradN_a f(x_a) must be
	// (2,-3,5) at every quadrature point, for every kind.
	f := func(p mesh.Vec3) float64 { return 2*p.X - 3*p.Y + 5*p.Z }
	var s Scratch
	for _, k := range allKinds {
		b := BasisFor(k)
		coords := refCoords(k)
		copy(s.Coords[:], coords)
		for q := range b.QP {
			Jacobian(&b.QP[q], b.NEN, s.Coords[:], &s.GradN)
			var g [3]float64
			for a := 0; a < b.NEN; a++ {
				fa := f(coords[a])
				for c := 0; c < 3; c++ {
					g[c] += s.GradN[a][c] * fa
				}
			}
			want := [3]float64{2, -3, 5}
			for c := 0; c < 3; c++ {
				if math.Abs(g[c]-want[c]) > 1e-10 {
					t.Fatalf("%v qp %d: grad[%d] = %g, want %g", k, q, c, g[c], want[c])
				}
			}
		}
	}
}

func TestGradientsOnDistortedElement(t *testing.T) {
	// Same linear-field reproduction on randomly distorted (but valid)
	// tets: affine invariance of the linear basis.
	rng := rand.New(rand.NewSource(4))
	var s Scratch
	f := func(p mesh.Vec3) float64 { return -p.X + 4*p.Y + 2*p.Z }
	for trial := 0; trial < 20; trial++ {
		coords := refCoords(mesh.Tet4)
		for i := range coords {
			coords[i].X += 0.2 * rng.Float64()
			coords[i].Y += 0.2 * rng.Float64()
			coords[i].Z += 0.2 * rng.Float64()
		}
		copy(s.Coords[:], coords)
		b := BasisFor(mesh.Tet4)
		for q := range b.QP {
			Jacobian(&b.QP[q], b.NEN, s.Coords[:], &s.GradN)
			var g [3]float64
			for a := 0; a < b.NEN; a++ {
				fa := f(coords[a])
				for c := 0; c < 3; c++ {
					g[c] += s.GradN[a][c] * fa
				}
			}
			if math.Abs(g[0]+1) > 1e-9 || math.Abs(g[1]-4) > 1e-9 || math.Abs(g[2]-2) > 1e-9 {
				t.Fatalf("trial %d: grad = %v", trial, g)
			}
		}
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	// Constant fields are in the Laplacian null space: row sums vanish.
	var s Scratch
	for _, k := range allKinds {
		nen := BasisFor(k).NEN
		copy(s.Coords[:], refCoords(k))
		LaplacianElement(k, nen, &s)
		for a := 0; a < nen; a++ {
			row := 0.0
			for b := 0; b < nen; b++ {
				row += s.Ke[a*nen+b]
			}
			if math.Abs(row) > 1e-10 {
				t.Errorf("%v row %d sums to %g", k, a, row)
			}
		}
		// Symmetry.
		for a := 0; a < nen; a++ {
			for b := 0; b < nen; b++ {
				if math.Abs(s.Ke[a*nen+b]-s.Ke[b*nen+a]) > 1e-12 {
					t.Errorf("%v laplacian not symmetric at (%d,%d)", k, a, b)
				}
			}
		}
		// Diagonal positive.
		for a := 0; a < nen; a++ {
			if s.Ke[a*nen+a] <= 0 {
				t.Errorf("%v diagonal %d = %g", k, a, s.Ke[a*nen+a])
			}
		}
	}
}

func TestMassMatrixTotal(t *testing.T) {
	// Sum of all mass matrix entries = element volume.
	var s Scratch
	for _, k := range allKinds {
		nen := BasisFor(k).NEN
		copy(s.Coords[:], refCoords(k))
		MassElement(k, nen, &s)
		total := 0.0
		for i := 0; i < nen*nen; i++ {
			total += s.Ke[i]
		}
		if math.Abs(total-exactVolume(k)) > 1e-10 {
			t.Errorf("%v mass total %g, want %g", k, total, exactVolume(k))
		}
	}
}

func TestMomentumReducesToMass(t *testing.T) {
	// With zero velocity, zero viscosity and no SUPG, the momentum matrix
	// is (rho/dt) * M; its total equals rho*V/dt and the RHS reproduces
	// (rho/dt)*M*u_old per velocity component.
	props := FluidProps{Rho: 2, Mu: 0, Dt: 0.5}
	uold := mesh.Vec3{X: 1, Y: 2, Z: -3}
	var s Scratch
	for _, k := range allKinds {
		nen := BasisFor(k).NEN
		copy(s.Coords[:], refCoords(k))
		for a := 0; a < nen; a++ {
			s.UConv[a] = mesh.Vec3{}
			s.UOld3[a] = uold
		}
		MomentumElement3(k, nen, props, &s)
		total := 0.0
		for i := 0; i < nen*nen; i++ {
			total += s.Ke[i]
		}
		wantTotal := props.Rho / props.Dt * exactVolume(k)
		if math.Abs(total-wantTotal) > 1e-9 {
			t.Errorf("%v momentum total %g, want %g", k, total, wantTotal)
		}
		// RHS: with a constant u_old, Fe3[c]_a = (rho/dt) sum_b M_ab u_old[c]
		// = row sum * u_old[c].
		for a := 0; a < nen; a++ {
			row := 0.0
			for b := 0; b < nen; b++ {
				row += s.Ke[a*nen+b]
			}
			for c, u := range [3]float64{uold.X, uold.Y, uold.Z} {
				if math.Abs(s.Fe3[c][a]-row*u) > 1e-9 {
					t.Errorf("%v RHS[%d][%d] = %g, want row sum x u_old %g", k, c, a, s.Fe3[c][a], row*u)
				}
			}
		}
	}
}

func TestMomentumConvectionSkewEffect(t *testing.T) {
	// With convection on, the matrix must become nonsymmetric.
	props := FluidProps{Rho: 1, Mu: 0.001, Dt: 1}
	var s Scratch
	nen := 4
	copy(s.Coords[:], refCoords(mesh.Tet4))
	for a := 0; a < nen; a++ {
		s.UConv[a] = mesh.Vec3{X: 1, Y: 0.5, Z: 0}
	}
	MomentumElement3(mesh.Tet4, nen, props, &s)
	asym := 0.0
	for a := 0; a < nen; a++ {
		for b := 0; b < nen; b++ {
			asym += math.Abs(s.Ke[a*nen+b] - s.Ke[b*nen+a])
		}
	}
	if asym < 1e-8 {
		t.Fatal("convective matrix should be nonsymmetric")
	}
}

func TestDivergenceRHSZeroForConstantField(t *testing.T) {
	// A constant velocity field is divergence free: RHS must vanish.
	props := FluidProps{Rho: 1, Mu: 0.001, Dt: 0.1}
	var s Scratch
	for _, k := range allKinds {
		nen := BasisFor(k).NEN
		copy(s.Coords[:], refCoords(k))
		for a := 0; a < nen; a++ {
			s.UConv[a] = mesh.Vec3{X: 3, Y: -2, Z: 1}
		}
		DivergenceRHS(k, nen, props, &s)
		for a := 0; a < nen; a++ {
			if math.Abs(s.Fe[a]) > 1e-10 {
				t.Errorf("%v: divergence RHS[%d] = %g for constant field", k, a, s.Fe[a])
			}
		}
	}
}

func TestDivergenceRHSSignForExpansion(t *testing.T) {
	// u = (x, y, z) has div = 3 > 0; the RHS is -(rho/dt)*N*div < 0.
	props := FluidProps{Rho: 1, Mu: 0, Dt: 1}
	var s Scratch
	nen := 4
	coords := refCoords(mesh.Tet4)
	copy(s.Coords[:], coords)
	for a := 0; a < nen; a++ {
		s.UConv[a] = coords[a]
	}
	DivergenceRHS(mesh.Tet4, nen, props, &s)
	for a := 0; a < nen; a++ {
		if s.Fe[a] >= 0 {
			t.Fatalf("expanding field must give negative RHS, got Fe[%d]=%g", a, s.Fe[a])
		}
	}
}

func TestSGSZeroForZeroVelocity(t *testing.T) {
	props := FluidProps{Rho: 1, Mu: 1e-3, Dt: 1e-2}
	var s Scratch
	for _, k := range allKinds {
		nen := BasisFor(k).NEN
		copy(s.Coords[:], refCoords(k))
		for a := 0; a < nen; a++ {
			s.UConv[a] = mesh.Vec3{}
		}
		got := SGSElement(k, nen, props, &s)
		if got.Norm() != 0 {
			t.Errorf("%v: SGS of zero field = %v", k, got)
		}
	}
}

func TestSGSOpposesConvection(t *testing.T) {
	// For a shear field the subgrid velocity is finite and bounded by the
	// resolved velocity scale.
	props := FluidProps{Rho: 1, Mu: 1e-3, Dt: 1e-2}
	var s Scratch
	nen := 4
	coords := refCoords(mesh.Tet4)
	copy(s.Coords[:], coords)
	for a := 0; a < nen; a++ {
		// u = (2x, 0, 0) has (u . grad)u = (4x, 0, 0) != 0.
		s.UConv[a] = mesh.Vec3{X: coords[a].X * 2, Y: 0, Z: 0}
	}
	got := SGSElement(mesh.Tet4, nen, props, &s)
	if got.Norm() == 0 {
		t.Fatal("SGS must be nonzero for accelerating convection")
	}
	if got.Norm() > 2 {
		t.Fatalf("SGS magnitude %g implausibly large", got.Norm())
	}
}

func TestSUPGAddsDiagonal(t *testing.T) {
	// SUPG should not break the mass total much but must change the
	// matrix when convection is strong.
	var s1, s2 Scratch
	nen := 4
	copy(s1.Coords[:], refCoords(mesh.Tet4))
	copy(s2.Coords[:], refCoords(mesh.Tet4))
	for a := 0; a < nen; a++ {
		u := mesh.Vec3{X: 10}
		s1.UConv[a], s2.UConv[a] = u, u
	}
	MomentumElement3(mesh.Tet4, nen, FluidProps{Rho: 1, Mu: 1e-3, Dt: 0.1}, &s1)
	MomentumElement3(mesh.Tet4, nen, FluidProps{Rho: 1, Mu: 1e-3, Dt: 0.1, SUPG: true}, &s2)
	diff := 0.0
	for i := 0; i < nen*nen; i++ {
		diff += math.Abs(s1.Ke[i] - s2.Ke[i])
	}
	if diff == 0 {
		t.Fatal("SUPG changed nothing")
	}
}

func TestCostWeights(t *testing.T) {
	if CostWeight(mesh.Tet4) != 1 {
		t.Fatal("tet cost must normalize to 1")
	}
	if CostWeight(mesh.Prism6) <= CostWeight(mesh.Pyramid5) {
		t.Fatal("prisms must cost more than pyramids")
	}
	if CostWeight(mesh.Pyramid5) <= CostWeight(mesh.Tet4) {
		t.Fatal("pyramids must cost more than tets")
	}
}

func TestLoadCoords(t *testing.T) {
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 0
	cfg.NTheta = 6
	cfg.NAxial = 2
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	nen := LoadCoords(m, 0, &s)
	if nen != m.Kinds[0].NodesPerElem() {
		t.Fatalf("LoadCoords returned %d nodes", nen)
	}
	if s.Coords[0] != m.Coords[m.ElemNodes(0)[0]] {
		t.Fatal("coords not loaded")
	}
}

func BenchmarkMomentumElementTet(b *testing.B) {
	var s Scratch
	copy(s.Coords[:], refCoords(mesh.Tet4))
	for a := 0; a < 4; a++ {
		s.UConv[a] = mesh.Vec3{X: 1, Y: 1, Z: 1}
	}
	props := FluidProps{Rho: 1, Mu: 1e-3, Dt: 1e-2, SUPG: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MomentumElement3(mesh.Tet4, 4, props, &s)
	}
}

func BenchmarkMomentumElementPrism(b *testing.B) {
	var s Scratch
	copy(s.Coords[:], refCoords(mesh.Prism6))
	props := FluidProps{Rho: 1, Mu: 1e-3, Dt: 1e-2, SUPG: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MomentumElement3(mesh.Prism6, 6, props, &s)
	}
}

// TestGeneratedMeshesHaveNoTangledElements checks every quadrature
// point of every element GenerateAirway builds, over the generations the
// dosage sweep and the examples run and the jitter amplitudes the mesh
// tests use (up to the validated maximum), with and without the inlet
// funnel: det J never vanishes and keeps one sign across an element. The
// kernels weight by |det J|, so a tangled element (a sign change inside
// it) would otherwise be integrated silently. The sign itself is not
// pinned: the generator emits some pyramids and prisms with left-handed
// node order, which |det J| integrates correctly.
func TestGeneratedMeshesHaveNoTangledElements(t *testing.T) {
	var s Scratch
	for gens := 0; gens <= 4; gens++ {
		for _, jitter := range []float64{0, 0.01, 0.05} {
			for _, funnel := range []bool{true, false} {
				cfg := mesh.DefaultAirwayConfig()
				cfg.Generations, cfg.Jitter, cfg.WithInletFunnel = gens, jitter, funnel
				m, err := mesh.GenerateAirway(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < m.NumElems(); e++ {
					nen := LoadCoords(m, e, &s)
					basis := BasisFor(m.Kinds[e])
					sign := 0.0
					for q := range basis.QP {
						det := Jacobian(&basis.QP[q], nen, s.Coords[:], &s.GradN)
						if q == 0 {
							sign = math.Copysign(1, det)
						}
						if !(det*sign > 0) {
							t.Fatalf("gens=%d jitter=%g funnel=%v: element %d (%v) has det J = %g at quadrature point %d, sign %g at point 0",
								gens, jitter, funnel, e, m.Kinds[e], det, q, sign)
						}
					}
				}
			}
		}
	}
}
