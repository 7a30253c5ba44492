// Package mesh implements the hybrid finite-element meshes the paper's
// respiratory simulation runs on, together with a procedural generator for
// a human-airway-like geometry (inlet funnel -> trachea -> bronchial tree
// to a configurable branch generation).
//
// The paper's mesh is patient-specific and has 17.7 million elements:
// prisms resolving the boundary layer at the airway walls, tetrahedra in
// the core flow, and pyramids transitioning between the two. That mesh is
// not available; this package generates a synthetic geometry with the same
// structural properties that matter for the runtime study:
//
//   - hybrid element mix (heterogeneous per-element assembly cost),
//   - irregular node connectivity (assembly write conflicts),
//   - a single inlet orifice (pathological particle load imbalance),
//   - a branching domain (partition shape/imbalance).
//
// Mesh conformity at the prism/pyramid/tet transition ring allows
// non-conforming diagonals, as documented in DESIGN.md; assembly is
// node-based, so the runtime behaviour under study is unaffected.
package mesh

import (
	"fmt"
	"math"
)

// Kind identifies an element geometry.
type Kind uint8

// Element kinds used by the airway meshes.
const (
	Tet4 Kind = iota // 4-node tetrahedron
	Prism6
	Pyramid5
	numKinds
)

// NodesPerElem reports how many nodes an element of kind k has.
func (k Kind) NodesPerElem() int {
	switch k {
	case Tet4:
		return 4
	case Prism6:
		return 6
	case Pyramid5:
		return 5
	}
	return 0
}

// String returns the conventional name of the element kind.
func (k Kind) String() string {
	switch k {
	case Tet4:
		return "tetrahedron"
	case Prism6:
		return "prism"
	case Pyramid5:
		return "pyramid"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Vec3 is a point or vector in R^3.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v . w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean norm of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v/|v|; the zero vector is returned unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Mesh is an unstructured hybrid mesh. Element connectivity is stored flat:
// element e has kind Kinds[e] and nodes Conn[Ptr[e]:Ptr[e+1]].
type Mesh struct {
	Coords []Vec3  // node coordinates
	Kinds  []Kind  // element kinds
	Ptr    []int32 // element connectivity offsets, len = NumElems+1
	Conn   []int32 // flattened connectivity

	// InletNodes are the node indices on the inlet cross-section (the
	// "face" end of the geometry) where particles are injected and the
	// inflow boundary condition is applied.
	InletNodes []int32
	// OutletNodes are nodes on the distal cross-sections of the deepest
	// branch generation (outflow boundary).
	OutletNodes []int32
	// WallNodes are nodes on the airway wall (no-slip boundary).
	WallNodes []int32
}

// NumNodes reports the number of mesh nodes.
func (m *Mesh) NumNodes() int { return len(m.Coords) }

// NumElems reports the number of elements.
func (m *Mesh) NumElems() int { return len(m.Kinds) }

// ElemNodes returns the node indices of element e. The slice aliases
// internal storage and must not be modified.
func (m *Mesh) ElemNodes(e int) []int32 { return m.Conn[m.Ptr[e]:m.Ptr[e+1]] }

// Centroid returns the arithmetic mean of element e's node coordinates.
func (m *Mesh) Centroid(e int) Vec3 {
	nodes := m.ElemNodes(e)
	var c Vec3
	for _, n := range nodes {
		c = c.Add(m.Coords[n])
	}
	return c.Scale(1 / float64(len(nodes)))
}

func tetVolume(a, b, c, d Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a)) / 6
}

// TetDecomposition appends to dst the node-index quadruples of a
// tetrahedralization of element e and returns the extended slice. Tets map
// to themselves, prisms split into 3 tets, pyramids into 2. The
// decomposition is used for volume computation and point location.
func (m *Mesh) TetDecomposition(e int, dst [][4]int32) [][4]int32 {
	n := m.ElemNodes(e)
	switch m.Kinds[e] {
	case Tet4:
		dst = append(dst, [4]int32{n[0], n[1], n[2], n[3]})
	case Prism6:
		// Prism nodes: bottom triangle 0,1,2; top triangle 3,4,5.
		dst = append(dst,
			[4]int32{n[0], n[1], n[2], n[3]},
			[4]int32{n[1], n[2], n[3], n[4]},
			[4]int32{n[2], n[3], n[4], n[5]},
		)
	case Pyramid5:
		// Pyramid nodes: base quad 0,1,2,3 (cyclic); apex 4.
		dst = append(dst,
			[4]int32{n[0], n[1], n[2], n[4]},
			[4]int32{n[0], n[2], n[3], n[4]},
		)
	}
	return dst
}

// Volume returns the unsigned volume of element e (sum over its
// tetrahedral decomposition).
func (m *Mesh) Volume(e int) float64 {
	var scratch [3][4]int32
	tets := m.TetDecomposition(e, scratch[:0])
	vol := 0.0
	for _, t := range tets {
		vol += math.Abs(tetVolume(m.Coords[t[0]], m.Coords[t[1]], m.Coords[t[2]], m.Coords[t[3]]))
	}
	return vol
}

// TotalVolume returns the sum of all element volumes.
func (m *Mesh) TotalVolume() float64 {
	tot := 0.0
	for e := 0; e < m.NumElems(); e++ {
		tot += m.Volume(e)
	}
	return tot
}

// ElemBox returns the axis-aligned bounding box of element e's nodes.
func (m *Mesh) ElemBox(e int) (lo, hi Vec3) {
	nodes := m.ElemNodes(e)
	lo = m.Coords[nodes[0]]
	hi = lo
	for _, nd := range nodes[1:] {
		p := m.Coords[nd]
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	return lo, hi
}

// BoundingBox returns the axis-aligned bounding box of the mesh nodes.
func (m *Mesh) BoundingBox() (lo, hi Vec3) {
	if len(m.Coords) == 0 {
		return
	}
	lo, hi = m.Coords[0], m.Coords[0]
	for _, p := range m.Coords[1:] {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	return lo, hi
}

// Validate checks structural invariants: connectivity offsets consistent
// with element kinds, node indices in range, no degenerate (repeated-node)
// elements, and strictly positive element volumes.
func (m *Mesh) Validate() error {
	if len(m.Ptr) != m.NumElems()+1 {
		return fmt.Errorf("mesh: ptr length %d, want %d", len(m.Ptr), m.NumElems()+1)
	}
	for e := 0; e < m.NumElems(); e++ {
		want := m.Kinds[e].NodesPerElem()
		if got := int(m.Ptr[e+1] - m.Ptr[e]); got != want {
			return fmt.Errorf("mesh: element %d (%v) has %d nodes, want %d", e, m.Kinds[e], got, want)
		}
		nodes := m.ElemNodes(e)
		for i, n := range nodes {
			if n < 0 || int(n) >= m.NumNodes() {
				return fmt.Errorf("mesh: element %d node index %d out of range", e, n)
			}
			for j := 0; j < i; j++ {
				if nodes[j] == n {
					return fmt.Errorf("mesh: element %d repeats node %d", e, n)
				}
			}
		}
		if v := m.Volume(e); !(v > 0) || math.IsNaN(v) {
			return fmt.Errorf("mesh: element %d (%v) has non-positive volume %g", e, m.Kinds[e], v)
		}
	}
	for _, n := range m.InletNodes {
		if n < 0 || int(n) >= m.NumNodes() {
			return fmt.Errorf("mesh: inlet node %d out of range", n)
		}
	}
	return nil
}

// Stats summarizes a mesh for reporting.
type Stats struct {
	Nodes    int
	Elems    int
	Tets     int
	Prisms   int
	Pyramids int
	Volume   float64
}

// Summary computes element-kind counts and total volume.
func (m *Mesh) Summary() Stats {
	s := Stats{Nodes: m.NumNodes(), Elems: m.NumElems()}
	for _, k := range m.Kinds {
		switch k {
		case Tet4:
			s.Tets++
		case Prism6:
			s.Prisms++
		case Pyramid5:
			s.Pyramids++
		}
	}
	s.Volume = m.TotalVolume()
	return s
}

// String renders the stats in a compact human-readable form.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d elems=%d (tet=%d prism=%d pyramid=%d) volume=%.4g",
		s.Nodes, s.Elems, s.Tets, s.Prisms, s.Pyramids, s.Volume)
}

// builder accumulates nodes and elements during mesh generation.
type builder struct {
	coords []Vec3
	kinds  []Kind
	ptr    []int32
	conn   []int32
}

func newBuilder() *builder {
	return &builder{ptr: []int32{0}}
}

func (b *builder) addNode(p Vec3) int32 {
	b.coords = append(b.coords, p)
	return int32(len(b.coords) - 1)
}

func (b *builder) addElem(k Kind, nodes ...int32) {
	b.kinds = append(b.kinds, k)
	b.conn = append(b.conn, nodes...)
	b.ptr = append(b.ptr, int32(len(b.conn)))
}

// addTet adds a tetrahedron, swapping two nodes if needed so the signed
// volume is positive; degenerate tets are dropped.
func (b *builder) addTet(n0, n1, n2, n3 int32) {
	v := tetVolume(b.coords[n0], b.coords[n1], b.coords[n2], b.coords[n3])
	if v == 0 {
		return
	}
	if v < 0 {
		n1, n2 = n2, n1
	}
	b.addElem(Tet4, n0, n1, n2, n3)
}

func (b *builder) mesh() *Mesh {
	return &Mesh{Coords: b.coords, Kinds: b.kinds, Ptr: b.ptr, Conn: b.conn}
}
