package fem

import (
	"math"

	"repro/internal/mesh"
)

// The mesh never moves, so everything the kernels derive from nodal
// coordinates is static. A geometry record holds it for one quadrature
// point of one element: the integration weight W = w_q·|det J|, the
// element size H = cbrt|det J| (the SUPG/SGS length scale), then the
// element's nen physical shape-gradient rows, packed (3·nen floats, not
// padded to MaxElemNodes). An element whose reference gradients and
// weights are the same at every point — the linear tet — has one record
// serving all its points; the others have one per point.
//
// Records are written through Jacobian with the kernels' own |det J|
// and cbrt expressions, so a kernel reading them computes exactly the
// bits it computed from coordinates (where x*y+z is not contracted to a
// fused multiply-add, as on amd64; see DESIGN.md).

// MaxGeomLen is the largest per-element record length (pyramid: eight
// records of 2+15 floats). Scratch.Geom holds one element's records.
const MaxGeomLen = 8 * (2 + 3*5)

// recordLen returns the floats of one record of an nen-node element.
func recordLen(nen int) int { return 2 + 3*nen }

// geomLen returns the floats of one element's records.
func geomLen(k mesh.Kind) int {
	b := BasisFor(k)
	return b.records * recordLen(b.NEN)
}

// FillGeom writes the records of one element of kind k, whose node
// coordinates are coords, into g[:geomLen(k)].
func FillGeom(k mesh.Kind, coords []mesh.Vec3, g []float64) {
	b := BasisFor(k)
	stride := recordLen(b.NEN)
	var grad [MaxElemNodes][3]float64
	for r := 0; r < b.records; r++ {
		qp := &b.QP[r]
		det := Jacobian(qp, b.NEN, coords, &grad)
		rec := g[r*stride : (r+1)*stride]
		rec[0] = qp.W * math.Abs(det)
		rec[1] = math.Cbrt(math.Abs(det))
		for a := 0; a < b.NEN; a++ {
			copy(rec[2+3*a:5+3*a], grad[a][:])
		}
	}
}

// record returns quadrature point q's weight W and size H from element
// records g and copies its gradient rows into gradN, where the kernels'
// inner loops index them as cheaply as a Jacobian's output.
func record(b *Basis, g []float64, q int, gradN *[MaxElemNodes][3]float64) (w, h float64) {
	rec := g[q*b.recStep : q*b.recStep+recordLen(b.NEN)]
	for a := range b.NEN {
		gradN[a] = [3]float64(rec[2+3*a : 5+3*a])
	}
	return rec[0], rec[1]
}

// Geometry is the records of a list of elements, packed back to back:
// element e's are val[off[e]:off[e+1]].
type Geometry struct {
	off []int32
	val []float64
}

// NewGeometry lays out the records of elements of the given kinds. The
// caller fills element e's with FillGeom(kinds[e], coords, g.Elem(e)),
// so it can use them while they are still in cache.
func NewGeometry(kinds []mesh.Kind) *Geometry {
	g := &Geometry{off: make([]int32, len(kinds)+1)}
	for e, k := range kinds {
		g.off[e+1] = g.off[e] + int32(geomLen(k))
	}
	g.val = make([]float64, g.off[len(kinds)])
	return g
}

// Elem returns element e's records.
func (g *Geometry) Elem(e int) []float64 { return g.val[g.off[e]:g.off[e+1]] }
