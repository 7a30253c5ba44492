package mesh

import (
	"sort"

	"repro/internal/graph"
)

// NodeToElem builds the node-to-element incidence in CSR form: the
// elements touching node n are Adj[Ptr[n]:Ptr[n+1]], ascending. This is
// the inverse of the connectivity and drives dual-graph construction,
// assembly conflict detection and particle element search.
func (m *Mesh) NodeToElem() *graph.CSR {
	return graph.Transpose(m.elemToNode(), m.NumNodes())
}

// elemToNode views the connectivity as an element->node incidence.
func (m *Mesh) elemToNode() *graph.CSR { return &graph.CSR{Ptr: m.Ptr, Adj: m.Conn} }

// DualByNode builds the element dual graph in which two elements are
// adjacent iff they share at least one mesh node. This is exactly the
// conflict relation of the FEM assembly: two elements sharing a node may
// update the same matrix row concurrently (the race the paper's three
// strategies resolve), and the adjacency relation Metis reports for the
// multidependences subdomains.
func (m *Mesh) DualByNode() *graph.CSR {
	return graph.Shared(m.elemToNode(), m.NodeToElem())
}

// Face is a mesh face identified by its sorted node ids (triangles use
// N[3] = -1).
type Face struct {
	N     [4]int32
	Quad  bool
	Elem  int32 // one incident element
	Count int   // number of incident elements seen
}

// faceKey produces a canonical map key for a face.
func faceKey(nodes []int32) [4]int32 {
	var k [4]int32
	k[0], k[1], k[2], k[3] = -1, -1, -1, -1
	copy(k[:], nodes)
	s := k[:len(nodes)]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return k
}

// elemFaces appends the faces of element e to dst (as node-index slices
// backed by buf) and returns them. Triangles have 3 indices, quads 4.
func (m *Mesh) elemFaces(e int) [][]int32 {
	n := m.ElemNodes(e)
	switch m.Kinds[e] {
	case Tet4:
		return [][]int32{
			{n[0], n[1], n[2]}, {n[0], n[1], n[3]},
			{n[0], n[2], n[3]}, {n[1], n[2], n[3]},
		}
	case Prism6:
		return [][]int32{
			{n[0], n[1], n[2]}, {n[3], n[4], n[5]},
			{n[0], n[1], n[4], n[3]}, {n[1], n[2], n[5], n[4]}, {n[2], n[0], n[3], n[5]},
		}
	case Pyramid5:
		return [][]int32{
			{n[0], n[1], n[2], n[3]},
			{n[0], n[1], n[4]}, {n[1], n[2], n[4]}, {n[2], n[3], n[4]}, {n[3], n[0], n[4]},
		}
	}
	return nil
}

// BoundaryFaces returns faces incident to exactly one element. On hybrid
// meshes the prism/pyramid transition ring contains non-conforming
// diagonals (see package doc), so a small number of geometrically interior
// faces are reported too; callers using this for wall detection should
// combine it with the WallNodes markers.
func (m *Mesh) BoundaryFaces() []Face {
	counts := make(map[[4]int32]*Face, m.NumElems()*2)
	for e := 0; e < m.NumElems(); e++ {
		for _, f := range m.elemFaces(e) {
			k := faceKey(f)
			if rec, ok := counts[k]; ok {
				rec.Count++
			} else {
				counts[k] = &Face{N: k, Quad: len(f) == 4, Elem: int32(e), Count: 1}
			}
		}
	}
	var out []Face
	for _, rec := range counts {
		if rec.Count == 1 {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].N, out[j].N
		for k := 0; k < 4; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}
