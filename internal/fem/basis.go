// Package fem provides the finite-element machinery of the flow solver:
// shape functions and quadrature rules for the three element kinds of the
// hybrid airway meshes (linear tetrahedra, prisms and pyramids), and the
// element kernels of the phases the paper profiles — the momentum and
// continuity (pressure) assemblies and the subgrid-scale (SGS) update.
//
// Kernels are written against caller-supplied scratch buffers so the
// assembly strategies in package tasking can run them concurrently
// without allocation.
package fem

import (
	"math"

	"repro/internal/mesh"
)

// MaxElemNodes is the largest per-element node count (prism).
const MaxElemNodes = 6

// QuadPoint is one quadrature point with precomputed shape data on the
// reference element.
type QuadPoint struct {
	W  float64               // quadrature weight
	N  [MaxElemNodes]float64 // shape function values
	DN [MaxElemNodes][3]float64
}

// Basis is the reference-element data of one element kind.
type Basis struct {
	Kind mesh.Kind
	NEN  int // nodes per element
	QP   []QuadPoint
	// records is the number of geometry records per element: 1 when
	// every point has the same weight and reference gradients (so the
	// same W, H and physical gradients), else len(QP). recStep is the
	// offset in floats from one point's record to the next's: 0 when
	// one record serves every point.
	records, recStep int
}

var bases [3]*Basis

func init() {
	bases[mesh.Tet4] = buildTetBasis()
	bases[mesh.Prism6] = buildPrismBasis()
	bases[mesh.Pyramid5] = buildPyramidBasis()
	for _, b := range bases {
		b.records = 1
		for _, qp := range b.QP[1:] {
			if qp.W != b.QP[0].W || qp.DN != b.QP[0].DN {
				b.records = len(b.QP)
				b.recStep = recordLen(b.NEN)
				break
			}
		}
	}
}

// BasisFor returns the shared reference basis of an element kind. The
// returned value is immutable.
func BasisFor(k mesh.Kind) *Basis { return bases[k] }

// tetShape evaluates linear tet shape functions at reference point
// (x,y,z) in the unit tetrahedron.
func tetShape(x, y, z float64) (n [MaxElemNodes]float64, dn [MaxElemNodes][3]float64) {
	n[0] = 1 - x - y - z
	n[1] = x
	n[2] = y
	n[3] = z
	dn[0] = [3]float64{-1, -1, -1}
	dn[1] = [3]float64{1, 0, 0}
	dn[2] = [3]float64{0, 1, 0}
	dn[3] = [3]float64{0, 0, 1}
	return
}

func buildTetBasis() *Basis {
	const a = 0.5854101966249685
	const b = 0.1381966011250105
	pts := [4][3]float64{{b, b, b}, {a, b, b}, {b, a, b}, {b, b, a}}
	basis := &Basis{Kind: mesh.Tet4, NEN: 4}
	for _, p := range pts {
		n, dn := tetShape(p[0], p[1], p[2])
		basis.QP = append(basis.QP, QuadPoint{W: 1.0 / 24, N: n, DN: dn})
	}
	return basis
}

// prismShape: triangle area coordinates (x,y) with z in [-1,1]; nodes
// 0,1,2 bottom, 3,4,5 top (matching mesh.Prism6 ordering).
func prismShape(x, y, z float64) (n [MaxElemNodes]float64, dn [MaxElemNodes][3]float64) {
	l0, l1, l2 := 1-x-y, x, y
	lo, hi := (1-z)/2, (1+z)/2
	n[0], n[1], n[2] = l0*lo, l1*lo, l2*lo
	n[3], n[4], n[5] = l0*hi, l1*hi, l2*hi
	dn[0] = [3]float64{-lo, -lo, -l0 / 2}
	dn[1] = [3]float64{lo, 0, -l1 / 2}
	dn[2] = [3]float64{0, lo, -l2 / 2}
	dn[3] = [3]float64{-hi, -hi, l0 / 2}
	dn[4] = [3]float64{hi, 0, l1 / 2}
	dn[5] = [3]float64{0, hi, l2 / 2}
	return
}

func buildPrismBasis() *Basis {
	// 3-point triangle rule x 2-point Gauss in z.
	tri := [3][2]float64{{1.0 / 6, 1.0 / 6}, {2.0 / 3, 1.0 / 6}, {1.0 / 6, 2.0 / 3}}
	g := 1 / math.Sqrt(3)
	basis := &Basis{Kind: mesh.Prism6, NEN: 6}
	for _, t := range tri {
		for _, z := range []float64{-g, g} {
			n, dn := prismShape(t[0], t[1], z)
			basis.QP = append(basis.QP, QuadPoint{W: 1.0 / 6, N: n, DN: dn})
		}
	}
	return basis
}

// pyramidShape uses the collapsed-hexahedron formulation: reference
// coordinates (x,y,z) in [-1,1]^3 with the top face collapsed to the
// apex. Base nodes 0..3 cyclic, apex 4 (matching mesh.Pyramid5).
func pyramidShape(x, y, z float64) (n [MaxElemNodes]float64, dn [MaxElemNodes][3]float64) {
	lo := (1 - z) / 2
	n[0] = (1 - x) * (1 - y) * lo / 4
	n[1] = (1 + x) * (1 - y) * lo / 4
	n[2] = (1 + x) * (1 + y) * lo / 4
	n[3] = (1 - x) * (1 + y) * lo / 4
	n[4] = (1 + z) / 2
	dn[0] = [3]float64{-(1 - y) * lo / 4, -(1 - x) * lo / 4, -(1 - x) * (1 - y) / 8}
	dn[1] = [3]float64{(1 - y) * lo / 4, -(1 + x) * lo / 4, -(1 + x) * (1 - y) / 8}
	dn[2] = [3]float64{(1 + y) * lo / 4, (1 + x) * lo / 4, -(1 + x) * (1 + y) / 8}
	dn[3] = [3]float64{-(1 + y) * lo / 4, (1 - x) * lo / 4, -(1 - x) * (1 + y) / 8}
	dn[4] = [3]float64{0, 0, 0.5}
	return
}

func buildPyramidBasis() *Basis {
	g := 1 / math.Sqrt(3)
	basis := &Basis{Kind: mesh.Pyramid5, NEN: 5}
	for _, x := range []float64{-g, g} {
		for _, y := range []float64{-g, g} {
			for _, z := range []float64{-g, g} {
				n, dn := pyramidShape(x, y, z)
				basis.QP = append(basis.QP, QuadPoint{W: 1, N: n, DN: dn})
			}
		}
	}
	return basis
}

// Jacobian computes the 3x3 reference->physical Jacobian at a quadrature
// point from nodal coordinates, returning its determinant and writing the
// physical shape gradients into gradN. A singular Jacobian (det == 0)
// has no inverse; its gradients are written as zeros.
func Jacobian(qp *QuadPoint, nen int, coords []mesh.Vec3, gradN *[MaxElemNodes][3]float64) float64 {
	var j [3][3]float64
	for a := 0; a < nen; a++ {
		c := coords[a]
		d := qp.DN[a]
		j[0][0] += d[0] * c.X
		j[0][1] += d[0] * c.Y
		j[0][2] += d[0] * c.Z
		j[1][0] += d[1] * c.X
		j[1][1] += d[1] * c.Y
		j[1][2] += d[1] * c.Z
		j[2][0] += d[2] * c.X
		j[2][1] += d[2] * c.Y
		j[2][2] += d[2] * c.Z
	}
	det := j[0][0]*(j[1][1]*j[2][2]-j[1][2]*j[2][1]) -
		j[0][1]*(j[1][0]*j[2][2]-j[1][2]*j[2][0]) +
		j[0][2]*(j[1][0]*j[2][1]-j[1][1]*j[2][0])
	if det == 0 {
		for a := 0; a < nen; a++ {
			gradN[a] = [3]float64{}
		}
		return 0
	}
	inv := 1 / det
	// Inverse transpose applied to reference gradients:
	// gradN_a = J^{-T} dN_a.
	var it [3][3]float64
	it[0][0] = (j[1][1]*j[2][2] - j[1][2]*j[2][1]) * inv
	it[1][0] = -(j[0][1]*j[2][2] - j[0][2]*j[2][1]) * inv
	it[2][0] = (j[0][1]*j[1][2] - j[0][2]*j[1][1]) * inv
	it[0][1] = -(j[1][0]*j[2][2] - j[1][2]*j[2][0]) * inv
	it[1][1] = (j[0][0]*j[2][2] - j[0][2]*j[2][0]) * inv
	it[2][1] = -(j[0][0]*j[1][2] - j[0][2]*j[1][0]) * inv
	it[0][2] = (j[1][0]*j[2][1] - j[1][1]*j[2][0]) * inv
	it[1][2] = -(j[0][0]*j[2][1] - j[0][1]*j[2][0]) * inv
	it[2][2] = (j[0][0]*j[1][1] - j[0][1]*j[1][0]) * inv
	for a := 0; a < nen; a++ {
		d := qp.DN[a]
		gradN[a][0] = it[0][0]*d[0] + it[1][0]*d[1] + it[2][0]*d[2]
		gradN[a][1] = it[0][1]*d[0] + it[1][1]*d[1] + it[2][1]*d[2]
		gradN[a][2] = it[0][2]*d[0] + it[1][2]*d[1] + it[2][2]*d[2]
	}
	return det
}
