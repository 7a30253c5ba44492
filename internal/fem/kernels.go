package fem

import (
	"math"

	"repro/internal/mesh"
)

// Scratch is per-worker scratch space for element kernels, sized for the
// largest element. Allocate one per concurrent worker; kernels never
// allocate.
type Scratch struct {
	Coords [MaxElemNodes]mesh.Vec3
	UConv  [MaxElemNodes]mesh.Vec3 // convective velocity at nodes
	UOld3  [MaxElemNodes]mesh.Vec3 // previous-step velocity at nodes
	GradN  [MaxElemNodes][3]float64
	Ke     [MaxElemNodes * MaxElemNodes]float64
	Fe     [MaxElemNodes]float64
	Fe3    [3][MaxElemNodes]float64
}

// FluidProps bundles the physical constants of the incompressible flow
// (paper eq. 1-2): density rho_f, dynamic viscosity mu_f, and the time
// step of the Newmark/backward-Euler advance.
type FluidProps struct {
	Rho  float64
	Mu   float64
	Dt   float64
	SUPG bool // add streamline-upwind stabilization (VMS-style)
}

// MomentumElement3 assembles the momentum element matrix
//
//	(rho/dt) M + rho C(u) + mu K  [+ SUPG stabilization]
//
// once (it is the same for every velocity component) and the right-hand
// sides (rho/dt) M u_old of all three components in a single quadrature
// sweep. Scratch Coords, UConv and UOld3 must be filled for the element's
// nen nodes; results land in s.Ke (row-major nen x nen) and s.Fe3.
func MomentumElement3(kind mesh.Kind, nen int, props FluidProps, s *Scratch) {
	basis := BasisFor(kind)
	for i := 0; i < nen*nen; i++ {
		s.Ke[i] = 0
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < nen; i++ {
			s.Fe3[c][i] = 0
		}
	}
	rhoDt := props.Rho / props.Dt
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &s.GradN)
		w := qp.W * math.Abs(det)
		if w == 0 {
			continue
		}
		// Convective and old velocity at the quadrature point.
		var uq, uoldq mesh.Vec3
		for a := 0; a < nen; a++ {
			uq = uq.Add(s.UConv[a].Scale(qp.N[a]))
			uoldq = uoldq.Add(s.UOld3[a].Scale(qp.N[a]))
		}
		// SUPG parameter (algebraic tau as in VMS closures):
		// tau = (rho/dt + rho |u| / h + mu / h^2)^{-1} with h ~ cbrt(V).
		tau := 0.0
		if props.SUPG {
			h := math.Cbrt(math.Abs(det))
			if h > 0 {
				tau = 1 / (rhoDt + props.Rho*uq.Norm()/h + props.Mu/(h*h))
			}
		}
		for a := 0; a < nen; a++ {
			ga := s.GradN[a]
			uGa := uq.X*ga[0] + uq.Y*ga[1] + uq.Z*ga[2] // u . gradN_a
			testA := qp.N[a] + tau*uGa                  // SUPG-weighted test function
			for b := 0; b < nen; b++ {
				gb := s.GradN[b]
				uGb := uq.X*gb[0] + uq.Y*gb[1] + uq.Z*gb[2]
				diff := props.Mu * (ga[0]*gb[0] + ga[1]*gb[1] + ga[2]*gb[2])
				s.Ke[a*nen+b] += w * (rhoDt*testA*qp.N[b] + props.Rho*testA*uGb + diff)
			}
			f := w * rhoDt * testA
			s.Fe3[0][a] += f * uoldq.X
			s.Fe3[1][a] += f * uoldq.Y
			s.Fe3[2][a] += f * uoldq.Z
		}
	}
}

// LaplacianElement assembles the pressure-Poisson (continuity) element
// matrix K_ab = integral gradN_a . gradN_b. Scratch Coords must be filled.
func LaplacianElement(kind mesh.Kind, nen int, s *Scratch) {
	basis := BasisFor(kind)
	for i := 0; i < nen*nen; i++ {
		s.Ke[i] = 0
	}
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &s.GradN)
		w := qp.W * math.Abs(det)
		for a := 0; a < nen; a++ {
			ga := s.GradN[a]
			for b := 0; b < nen; b++ {
				gb := s.GradN[b]
				s.Ke[a*nen+b] += w * (ga[0]*gb[0] + ga[1]*gb[1] + ga[2]*gb[2])
			}
		}
	}
}

// MassElement assembles the consistent mass matrix M_ab = integral
// N_a N_b (used by tests and the divergence RHS).
func MassElement(kind mesh.Kind, nen int, s *Scratch) {
	basis := BasisFor(kind)
	for i := 0; i < nen*nen; i++ {
		s.Ke[i] = 0
	}
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &s.GradN)
		w := qp.W * math.Abs(det)
		for a := 0; a < nen; a++ {
			for b := 0; b < nen; b++ {
				s.Ke[a*nen+b] += w * qp.N[a] * qp.N[b]
			}
		}
	}
}

// DivergenceRHS computes the element contribution of the pressure-Poisson
// right-hand side, -(rho/dt) * integral N_a div(u), from nodal velocities
// in s.UConv. Results land in s.Fe.
func DivergenceRHS(kind mesh.Kind, nen int, props FluidProps, s *Scratch) {
	basis := BasisFor(kind)
	for i := 0; i < nen; i++ {
		s.Fe[i] = 0
	}
	rhoDt := props.Rho / props.Dt
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &s.GradN)
		w := qp.W * math.Abs(det)
		div := 0.0
		for a := 0; a < nen; a++ {
			g := s.GradN[a]
			u := s.UConv[a]
			div += g[0]*u.X + g[1]*u.Y + g[2]*u.Z
		}
		for a := 0; a < nen; a++ {
			s.Fe[a] -= w * rhoDt * qp.N[a] * div
		}
	}
}

// SGSElement computes the algebraic subgrid-scale velocity of one element
// (VMS closure): u' = -tau * R(u) evaluated at the element midpoint,
// where R is the convective residual. It reads s.Coords/s.UConv and
// returns the subgrid velocity vector. Unlike the assemblies, this phase
// scatters nothing to shared state — each element owns its result — which
// is why the paper's SGS phase needs no atomics.
func SGSElement(kind mesh.Kind, nen int, props FluidProps, s *Scratch) mesh.Vec3 {
	basis := BasisFor(kind)
	var acc mesh.Vec3
	vol := 0.0
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &s.GradN)
		w := qp.W * math.Abs(det)
		var uq, conv mesh.Vec3
		for a := 0; a < nen; a++ {
			uq = uq.Add(s.UConv[a].Scale(qp.N[a]))
		}
		for a := 0; a < nen; a++ {
			g := s.GradN[a]
			uGa := uq.X*g[0] + uq.Y*g[1] + uq.Z*g[2]
			conv = conv.Add(s.UConv[a].Scale(uGa))
		}
		h := math.Cbrt(math.Abs(det))
		tau := 0.0
		if h > 0 {
			tau = 1 / (props.Rho/props.Dt + props.Rho*uq.Norm()/h + props.Mu/(h*h))
		}
		acc = acc.Add(conv.Scale(-tau * props.Rho * w))
		vol += w
	}
	if vol > 0 {
		acc = acc.Scale(1 / vol)
	}
	return acc
}

// LoadCoords fills s.Coords for element e of m using global coordinates.
func LoadCoords(m *mesh.Mesh, e int, s *Scratch) int {
	nodes := m.ElemNodes(e)
	for i, nd := range nodes {
		s.Coords[i] = m.Coords[nd]
	}
	return len(nodes)
}

// CostWeight returns the relative assembly cost of an element kind: the
// quadrature-point count times the squared node count, normalized so a
// tetrahedron is 1. This drives cost-weighted partitioning and the
// performance model's heterogeneous work distributions.
func CostWeight(k mesh.Kind) float64 {
	b := BasisFor(k)
	cost := float64(len(b.QP) * b.NEN * b.NEN)
	tet := BasisFor(mesh.Tet4)
	return cost / float64(len(tet.QP)*tet.NEN*tet.NEN)
}
