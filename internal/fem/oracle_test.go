package fem

import (
	"math"

	"repro/internal/mesh"
)

// The element kernels as they were before the geometry records: each
// recomputes the Jacobian, the physical gradients and h = cbrt|det J|
// from s.Coords at every quadrature point. They are kept as oracles —
// the record-reading kernels must reproduce them bit for bit.

func oracleMomentumElement3(kind mesh.Kind, nen int, props FluidProps, s *Scratch) {
	basis := BasisFor(kind)
	var gradN [MaxElemNodes][3]float64
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
		det := Jacobian(qp, nen, s.Coords[:], &gradN)
		w := qp.W * math.Abs(det)
		if w == 0 {
			continue
		}
		var uq, uoldq mesh.Vec3
		for a := 0; a < nen; a++ {
			uq = uq.Add(s.UConv[a].Scale(qp.N[a]))
			uoldq = uoldq.Add(s.UOld3[a].Scale(qp.N[a]))
		}
		tau := 0.0
		if props.SUPG {
			h := math.Cbrt(math.Abs(det))
			if h > 0 {
				tau = 1 / (rhoDt + props.Rho*uq.Norm()/h + props.Mu/(h*h))
			}
		}
		for a := 0; a < nen; a++ {
			ga := gradN[a]
			uGa := uq.X*ga[0] + uq.Y*ga[1] + uq.Z*ga[2]
			testA := qp.N[a] + tau*uGa
			for b := 0; b < nen; b++ {
				gb := gradN[b]
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

func oracleLaplacianElement(kind mesh.Kind, nen int, s *Scratch) {
	basis := BasisFor(kind)
	var gradN [MaxElemNodes][3]float64
	for i := 0; i < nen*nen; i++ {
		s.Ke[i] = 0
	}
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &gradN)
		w := qp.W * math.Abs(det)
		for a := 0; a < nen; a++ {
			ga := gradN[a]
			for b := 0; b < nen; b++ {
				gb := gradN[b]
				s.Ke[a*nen+b] += w * (ga[0]*gb[0] + ga[1]*gb[1] + ga[2]*gb[2])
			}
		}
	}
}

func oracleDivergenceRHS(kind mesh.Kind, nen int, props FluidProps, s *Scratch) {
	basis := BasisFor(kind)
	var gradN [MaxElemNodes][3]float64
	for i := 0; i < nen; i++ {
		s.Fe[i] = 0
	}
	rhoDt := props.Rho / props.Dt
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &gradN)
		w := qp.W * math.Abs(det)
		div := 0.0
		for a := 0; a < nen; a++ {
			g := gradN[a]
			u := s.UConv[a]
			div += g[0]*u.X + g[1]*u.Y + g[2]*u.Z
		}
		for a := 0; a < nen; a++ {
			s.Fe[a] -= w * rhoDt * qp.N[a] * div
		}
	}
}

func oracleSGSElement(kind mesh.Kind, nen int, props FluidProps, s *Scratch) mesh.Vec3 {
	basis := BasisFor(kind)
	var gradN [MaxElemNodes][3]float64
	var acc mesh.Vec3
	vol := 0.0
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &gradN)
		w := qp.W * math.Abs(det)
		var uq, conv mesh.Vec3
		for a := 0; a < nen; a++ {
			uq = uq.Add(s.UConv[a].Scale(qp.N[a]))
		}
		for a := 0; a < nen; a++ {
			g := gradN[a]
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

// oracleCorrection is the velocity-correction quadrature the solver ran
// per element: slot[a*4] accumulates the lumped mass row and
// slot[a*4+1+c] the weak gradient component c of the nodal scalar p.
func oracleCorrection(kind mesh.Kind, nen int, p []float64, s *Scratch, slot *[MaxElemNodes * 4]float64) {
	basis := BasisFor(kind)
	var gradN [MaxElemNodes][3]float64
	for i := range slot {
		slot[i] = 0
	}
	for q := range basis.QP {
		qp := &basis.QP[q]
		det := Jacobian(qp, nen, s.Coords[:], &gradN)
		w := qp.W * math.Abs(det)
		var gp [3]float64
		for a := 0; a < nen; a++ {
			for c := 0; c < 3; c++ {
				gp[c] += gradN[a][c] * p[a]
			}
		}
		for a := 0; a < nen; a++ {
			wa := w * qp.N[a]
			slot[a*4] += wa
			for c := 0; c < 3; c++ {
				slot[a*4+1+c] += wa * gp[c]
			}
		}
	}
}
