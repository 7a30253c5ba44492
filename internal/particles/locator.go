package particles

import (
	"math"

	"repro/internal/mesh"
)

// Locator finds the mesh element containing a point, restricted to a
// subset of elements (an MPI rank's subdomain). It uses a uniform spatial
// grid over element bounding boxes plus exact point-in-tetrahedron tests
// on each element's tet decomposition.
//
// The grid is a CSR-style flat one: one offset slice plus one index slice
// holding the precomputed per-cell candidate lists contiguously, so a
// lookup is two slice reads with no hashing and no pointer chasing. The
// seed's map[int][]int32 buckets survive as the test oracle (mapLocator):
// both enumerate each cell's candidates in identical order, so Locate
// results are bit-for-bit interchangeable.
type Locator struct {
	m     *mesh.Mesh
	elems []int32 // element subset (global ids)

	origin mesh.Vec3
	cell   float64
	nx, ny int
	nz     int
	tol    float64

	// Flat CSR grid: cell k's candidates are
	// cellElems[cellPtr[k]:cellPtr[k+1]]. Only a build-time intermediate:
	// buildNeighborhoods folds it into the union lists below and releases
	// it, so a live flat locator holds just unionPtr/unionElems.
	cellPtr   []int32
	cellElems []int32
	// Precomputed per-cell neighborhood lists: cell k's own candidates
	// followed by its 26 neighbors', in the exact order the legacy scan
	// visits them, with later duplicates dropped. Locate walks this one
	// list instead of up to 27 bucket lookups; dropping a duplicate never
	// changes the first Contains hit, so results are identical to the
	// nested scan.
	unionPtr   []int32
	unionElems []int32
}

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
	// representations. Element boxes are cached between the two passes so
	// the node sweep in ElemBox runs once per element.
	ncells := l.nx * l.ny * l.nz
	counts := make([]int32, ncells+1)
	boxes := make([][2]mesh.Vec3, len(l.elems))
	for i, e := range l.elems {
		elo, ehi := m.ElemBox(int(e))
		boxes[i] = [2]mesh.Vec3{elo, ehi}
		l.forCells(elo, ehi, func(key int) {
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
	for i, e := range l.elems {
		l.forCells(boxes[i][0], boxes[i][1], func(key int) {
			l.cellElems[next[key]] = e
			next[key]++
		})
	}
	l.buildNeighborhoods(ncells)
	return l
}

// buildNeighborhoods precomputes each cell's deduplicated candidate list
// over the cell plus its 26 neighbors, preserving the legacy scan order
// (center cell first, then offsets in dz, dy, dx order).
func (l *Locator) buildNeighborhoods(ncells int) {
	l.unionPtr = make([]int32, ncells+1)
	stamp := make([]int32, l.m.NumElems())
	for i := range stamp {
		stamp[i] = -1
	}
	// Each per-cell entry lands in at most 27 neighborhood lists (domain
	// edges and dedup only shrink that), so this capacity is a true upper
	// bound: the append below never grows-and-copies. A final exact-size
	// copy keeps the retained slice tight.
	union := make([]int32, 0, 27*len(l.cellElems))
	appendCell := func(key int32, x, y, z int) {
		if x < 0 || y < 0 || z < 0 || x >= l.nx || y >= l.ny || z >= l.nz {
			return
		}
		k := l.key(x, y, z)
		for _, e := range l.cellElems[l.cellPtr[k]:l.cellPtr[k+1]] {
			if stamp[e] == key {
				continue
			}
			stamp[e] = key
			union = append(union, e)
		}
	}
	// The loop nest visits keys in increasing order, so unionPtr can be
	// finalized cell by cell.
	for iz := 0; iz < l.nz; iz++ {
		for iy := 0; iy < l.ny; iy++ {
			for ix := 0; ix < l.nx; ix++ {
				key := int32(l.key(ix, iy, iz))
				appendCell(key, ix, iy, iz)
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							appendCell(key, ix+dx, iy+dy, iz+dz)
						}
					}
				}
				l.unionPtr[key+1] = int32(len(union))
			}
		}
	}
	l.unionElems = append(make([]int32, 0, len(union)), union...)
	// The per-cell CSR was only needed to build the union lists; Locate
	// reads unionPtr/unionElems exclusively, so release the intermediate
	// rather than keeping it alive per rank.
	l.cellPtr, l.cellElems = nil, nil
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
// tested first along with its cell neighborhood, making the common case —
// a particle staying in or near its previous element — cheap.
func (l *Locator) Locate(p mesh.Vec3, hint int32) (int32, bool) {
	if hint >= 0 && l.Contains(int(hint), p) {
		return hint, true
	}
	ix, iy, iz := l.cellIndex(p)
	if ix < 0 || iy < 0 || iz < 0 || ix >= l.nx || iy >= l.ny || iz >= l.nz {
		return -1, false
	}
	// One precomputed neighborhood list covers the cell and its 26
	// neighbors in legacy scan order, duplicates removed.
	k := l.key(ix, iy, iz)
	for _, e := range l.unionElems[l.unionPtr[k]:l.unionPtr[k+1]] {
		if l.Contains(int(e), p) {
			return e, true
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
