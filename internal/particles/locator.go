package particles

import (
	"math"
	"math/bits"

	"repro/internal/mesh"
)

// Locator finds the mesh element containing a point, restricted to a
// subset of elements (an MPI rank's subdomain). It uses a uniform spatial
// grid over element bounding boxes plus exact point-in-tetrahedron tests
// on each element's tet decomposition.
//
// The grid is a CSR-style flat one: one offset slice plus one index slice
// holding every cell's candidate list contiguously, so a lookup is slice
// reads with no hashing and no pointer chasing. The seed's map[int][]int32
// buckets survive as the test oracle (mapLocator): both enumerate each
// cell's candidates in identical order and visit the cells in identical
// order, so Locate results are bit-for-bit interchangeable.
type Locator struct {
	m     *mesh.Mesh
	elems []int32 // element subset (global ids)

	origin mesh.Vec3
	cell   float64
	nx, ny int
	nz     int
	tol    float64

	// Flat CSR grid: cell k's candidates are
	// cellElems[cellPtr[k]:cellPtr[k+1]], positions in elems (not global
	// ids) so that the per-element data below scales with the subdomain.
	cellPtr   []int32
	cellElems []int32
	// nbrMask[k] has bit j set when neighbor j of cell k (see nbrOffsets)
	// lies inside the grid and has candidates, so Locate walks only
	// non-empty lists and never bounds-checks a neighbor; nbrDelta[j] is
	// neighbor j's key minus k.
	nbrMask  []uint32
	nbrDelta [27]int32
	// boxes[i] is element elems[i] with its bounding box widened by boxPad
	// on every side. The neighborhood walk skips an element whose padded
	// box misses p before running its tet tests; see boxPad for why that
	// never changes an answer.
	boxes []elemBox
}

// nbrOffsets are the 27 cells Locate visits, in the seed's scan order:
// the cell itself, then its 26 neighbors in dz, dy, dx order.
var nbrOffsets = func() (o [27][3]int) {
	j := 1
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx != 0 || dy != 0 || dz != 0 {
					o[j] = [3]int{dx, dy, dz}
					j++
				}
			}
		}
	}
	return o
}()

// elemBox is an element's axis-aligned box and global id, kept together
// so that the walk reads both from one place rather than also loading
// elems[i] (measurably slower; see DESIGN.md "Element search").
type elemBox struct {
	lo, hi mesh.Vec3
	e      int32
}

// has reports whether p lies in the closed box (false for NaN).
func (b *elemBox) has(p mesh.Vec3) bool {
	return p.X >= b.lo.X && p.X <= b.hi.X &&
		p.Y >= b.lo.Y && p.Y <= b.hi.Y &&
		p.Z >= b.lo.Z && p.Z <= b.hi.Z
}

// boxesMeet reports whether any own padded element box meets the closed
// box [lo, hi]. Locate accepts only points inside such a box, so when none
// meets it, no point of [lo, hi] can be located in this subdomain.
func (l *Locator) boxesMeet(lo, hi mesh.Vec3) bool {
	for i := range l.boxes {
		b := &l.boxes[i]
		if b.lo.X <= hi.X && b.hi.X >= lo.X &&
			b.lo.Y <= hi.Y && b.hi.Y >= lo.Y &&
			b.lo.Z <= hi.Z && b.hi.Z >= lo.Z {
			return true
		}
	}
	return false
}

// boxPad is the padding of the element boxes, in units of the locator's
// tol (1e-9 x the grid span): 1e-6 x the span. pointInTet accepts p only
// when every barycentric coordinate is >= -1e-9, and p is their weighted
// sum of the vertices, so in exact arithmetic an accepted p lies within
// 3e-9 x the element's extent (never above the span) of its box. The pad
// is 300x that, which leaves room for the rounding of the signed volumes:
// every point Contains accepts is inside the padded box, so the first hit
// in list order, and with it every Locate result, is unchanged.
// TestPaddedBoxHoldsEveryAcceptedPoint pins it on the generated airways.
const boxPad = 1e3

// newGrid sizes the uniform grid over m's bounding box and resolves the
// element subset; it bins nothing.
func newGrid(m *mesh.Mesh, elems []int32, cellsPerAxis int) *Locator {
	if elems == nil {
		elems = make([]int32, m.NumElems())
		for i := range elems {
			elems[i] = int32(i)
		}
	}
	if cellsPerAxis < 4 {
		cellsPerAxis = 4
	}
	lo, hi := m.BoundingBox()
	span := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))
	if span == 0 {
		span = 1
	}
	l := &Locator{
		m:      m,
		elems:  elems,
		origin: lo,
		cell:   span / float64(cellsPerAxis),
		tol:    1e-9 * span,
	}
	l.nx = int((hi.X-lo.X)/l.cell) + 2
	l.ny = int((hi.Y-lo.Y)/l.cell) + 2
	l.nz = int((hi.Z-lo.Z)/l.cell) + 2
	return l
}

// NewLocator builds a flat-grid locator over the given elements of m;
// pass nil to cover the whole mesh. cellsPerAxis controls grid resolution
// (16-64 is reasonable; it is clamped to at least 4).
func NewLocator(m *mesh.Mesh, elems []int32, cellsPerAxis int) *Locator {
	l := newGrid(m, elems, cellsPerAxis)
	// CSR build: count entries per cell, prefix-sum, then fill. The fill
	// pass walks elems in the same order as the map oracle's build appends,
	// so each cell's candidate list is ordered identically in both
	// representations. Element boxes are kept between the two passes so
	// the node sweep in ElemBox runs once per element; binning uses the
	// exact boxes, and only afterwards are they padded for Locate.
	ncells := l.nx * l.ny * l.nz
	counts := make([]int32, ncells+1)
	l.boxes = make([]elemBox, len(l.elems))
	for i, e := range l.elems {
		b := &l.boxes[i]
		b.lo, b.hi = m.ElemBox(int(e))
		b.e = e
		l.forCells(b.lo, b.hi, func(key int) {
			counts[key+1]++
		})
	}
	for k := 0; k < ncells; k++ {
		counts[k+1] += counts[k]
	}
	l.cellPtr = counts
	l.cellElems = make([]int32, l.cellPtr[ncells])
	next := make([]int32, ncells)
	copy(next, l.cellPtr[:ncells])
	pad := mesh.Vec3{X: boxPad * l.tol, Y: boxPad * l.tol, Z: boxPad * l.tol}
	for i := range l.boxes {
		b := &l.boxes[i]
		l.forCells(b.lo, b.hi, func(key int) {
			l.cellElems[next[key]] = int32(i)
			next[key]++
		})
		b.lo, b.hi = b.lo.Sub(pad), b.hi.Add(pad)
	}
	l.buildNeighborMasks()
	return l
}

// buildNeighborMasks sets each cell's neighbor mask from the filled CSR
// grid and the key offsets it is read with.
func (l *Locator) buildNeighborMasks() {
	for j, o := range nbrOffsets {
		l.nbrDelta[j] = int32(l.key(o[0], o[1], o[2]))
	}
	l.nbrMask = make([]uint32, len(l.cellPtr)-1)
	for iz := 0; iz < l.nz; iz++ {
		for iy := 0; iy < l.ny; iy++ {
			for ix := 0; ix < l.nx; ix++ {
				var mask uint32
				for j, o := range nbrOffsets {
					x, y, z := ix+o[0], iy+o[1], iz+o[2]
					if x < 0 || y < 0 || z < 0 || x >= l.nx || y >= l.ny || z >= l.nz {
						continue
					}
					if k := l.key(x, y, z); l.cellPtr[k] < l.cellPtr[k+1] {
						mask |= 1 << j
					}
				}
				l.nbrMask[l.key(ix, iy, iz)] = mask
			}
		}
	}
}

func (l *Locator) cellIndex(p mesh.Vec3) (ix, iy, iz int) {
	ix = int((p.X - l.origin.X) / l.cell)
	iy = int((p.Y - l.origin.Y) / l.cell)
	iz = int((p.Z - l.origin.Z) / l.cell)
	return
}

func (l *Locator) key(ix, iy, iz int) int {
	return (iz*l.ny+iy)*l.nx + ix
}

func (l *Locator) forCells(lo, hi mesh.Vec3, fn func(key int)) {
	x0, y0, z0 := l.cellIndex(lo)
	x1, y1, z1 := l.cellIndex(hi)
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				fn(l.key(x, y, z))
			}
		}
	}
}

// pointInTet tests p against the tet (a,b,c,d) with tolerance, using
// signed volumes.
func pointInTet(p, a, b, c, d mesh.Vec3, tol float64) bool {
	v := func(p0, p1, p2, p3 mesh.Vec3) float64 {
		return p1.Sub(p0).Cross(p2.Sub(p0)).Dot(p3.Sub(p0))
	}
	whole := v(a, b, c, d)
	if whole == 0 {
		return false
	}
	sign := 1.0
	if whole < 0 {
		sign = -1.0
	}
	eps := -tol * math.Abs(whole)
	return sign*v(p, b, c, d) >= eps &&
		sign*v(a, p, c, d) >= eps &&
		sign*v(a, b, p, d) >= eps &&
		sign*v(a, b, c, p) >= eps
}

// kindTets is mesh.TetDecomposition in element-local node indices, one
// static table per element kind, so Contains walks a table instead of
// materializing node quadruples on every call.
// TestKindTetsMatchTetDecomposition pins the two against each other.
var kindTets = [...][][4]uint8{
	mesh.Tet4:     {{0, 1, 2, 3}},
	mesh.Prism6:   {{0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5}},
	mesh.Pyramid5: {{0, 1, 2, 4}, {0, 2, 3, 4}},
}

// Contains tests whether element e contains point p.
func (l *Locator) Contains(e int, p mesh.Vec3) bool {
	nodes := l.m.ElemNodes(e)
	coords := l.m.Coords
	for _, t := range kindTets[l.m.Kinds[e]] {
		if pointInTet(p, coords[nodes[t[0]]], coords[nodes[t[1]]], coords[nodes[t[2]]], coords[nodes[t[3]]], 1e-9) {
			return true
		}
	}
	return false
}

// Locate finds an element containing p. hint (an element id or -1) is
// tested first, on its own, making the common case — a particle staying
// in its previous element — cheap.
func (l *Locator) Locate(p mesh.Vec3, hint int32) (int32, bool) {
	if hint >= 0 && l.Contains(int(hint), p) {
		return hint, true
	}
	ix, iy, iz := l.cellIndex(p)
	if ix < 0 || iy < 0 || iz < 0 || ix >= l.nx || iy >= l.ny || iz >= l.nz {
		return -1, false
	}
	// The cell and its non-empty neighbors, in the seed's scan order. An
	// element in several of them is tested once per cell; Contains is
	// pure, so a repeat fails as its first test did and the first hit is
	// the seed's. An element whose padded box misses p cannot contain it,
	// so its tet tests are skipped.
	k := int32(l.key(ix, iy, iz))
	for mask := l.nbrMask[k]; mask != 0; mask &= mask - 1 {
		c := k + l.nbrDelta[bits.TrailingZeros32(mask)]
		for _, i := range l.cellElems[l.cellPtr[c]:l.cellPtr[c+1]] {
			if b := &l.boxes[i]; b.has(p) && l.Contains(int(b.e), p) {
				return b.e, true
			}
		}
	}
	return -1, false
}

// InterpolateIDW evaluates a nodal vector field at p inside element e by
// inverse-distance weighting over the element's nodes. field maps a
// global node id to a vector. IDW is exact at nodes, continuous inside
// the element, and avoids the reference-coordinate inversion that general
// hybrid elements would need.
func (l *Locator) InterpolateIDW(e int, p mesh.Vec3, field func(node int32) mesh.Vec3) mesh.Vec3 {
	nodes := l.m.ElemNodes(e)
	var acc mesh.Vec3
	wsum := 0.0
	for _, nd := range nodes {
		d := p.Sub(l.m.Coords[nd]).Norm()
		if d < l.tol {
			return field(nd)
		}
		w := 1 / (d * d)
		acc = acc.Add(field(nd).Scale(w))
		wsum += w
	}
	return acc.Scale(1 / wsum)
}
