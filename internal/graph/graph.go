// Package graph provides compressed sparse row (CSR) graph structures and
// the graph algorithms the rest of the stack builds on: greedy and balanced
// vertex coloring (the "coloring" assembly strategy), breadth-first search,
// connected components, and reverse Cuthill–McKee ordering.
//
// Graphs here are undirected and simple unless stated otherwise. Vertices
// are dense integer indices 0..N-1, which matches how mesh elements and
// nodes are identified throughout the repository.
package graph

import (
	"fmt"
	"sort"
)

// CSR is an adjacency structure in compressed sparse row form.
// The neighbors of vertex v are Adj[Ptr[v]:Ptr[v+1]].
// The zero value is an empty graph with no vertices.
type CSR struct {
	Ptr []int32 // length NumVertices+1
	Adj []int32 // concatenated adjacency lists
}

// NumVertices reports the number of vertices in the graph.
func (g *CSR) NumVertices() int {
	if len(g.Ptr) == 0 {
		return 0
	}
	return len(g.Ptr) - 1
}

// Degree reports the degree of vertex v.
func (g *CSR) Degree(v int) int { return int(g.Ptr[v+1] - g.Ptr[v]) }

// Neighbors returns the adjacency list of vertex v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *CSR) Neighbors(v int) []int32 { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// MaxDegree reports the maximum vertex degree, or 0 for an empty graph.
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Edge is an undirected edge between two vertices.
type Edge struct{ U, V int32 }

// FromEdges builds a CSR graph with n vertices from an edge list.
// Duplicate edges and self loops are removed. Both directions are stored.
func FromEdges(n int, edges []Edge) *CSR {
	deg := make([]int32, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	ptr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + deg[i]
	}
	adj := make([]int32, ptr[n])
	next := make([]int32, n)
	copy(next, ptr[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	g := &CSR{Ptr: ptr, Adj: adj}
	g.dedupe()
	return g
}

// FromAdjacency builds a CSR graph from explicit adjacency lists,
// deduplicating neighbors and dropping self loops.
func FromAdjacency(lists [][]int32) *CSR {
	n := len(lists)
	ptr := make([]int32, n+1)
	total := 0
	for i, l := range lists {
		total += len(l)
		ptr[i+1] = int32(total)
	}
	adj := make([]int32, 0, total)
	for i, l := range lists {
		adj = append(adj, l...)
		_ = i
	}
	g := &CSR{Ptr: ptr, Adj: adj}
	g.dedupe()
	return g
}

// dedupe sorts each adjacency list, removing duplicates and self loops,
// and compacts storage.
func (g *CSR) dedupe() {
	n := g.NumVertices()
	newAdj := g.Adj[:0]
	newPtr := make([]int32, n+1)
	read := int32(0)
	for v := 0; v < n; v++ {
		start := read
		end := g.Ptr[v+1]
		list := g.Adj[start:end]
		read = end
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		writeStart := len(newAdj)
		var prev int32 = -1
		for _, w := range list {
			if w == int32(v) || w == prev {
				continue
			}
			newAdj = append(newAdj, w)
			prev = w
		}
		newPtr[v] = int32(writeStart)
	}
	newPtr[n] = int32(len(newAdj))
	// newPtr currently holds starts; convert in place (already starts).
	g.Adj = newAdj
	g.Ptr = newPtr
}

// Validate checks structural invariants: monotone pointers, in-range
// neighbor indices, no self loops, and symmetric adjacency. It returns a
// descriptive error for the first violation found.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.Ptr) != n+1 {
		return fmt.Errorf("graph: ptr length %d, want %d", len(g.Ptr), n+1)
	}
	for v := 0; v < n; v++ {
		if g.Ptr[v] > g.Ptr[v+1] {
			return fmt.Errorf("graph: non-monotone ptr at vertex %d", v)
		}
	}
	if int(g.Ptr[n]) != len(g.Adj) {
		return fmt.Errorf("graph: ptr[n]=%d, len(adj)=%d", g.Ptr[n], len(g.Adj))
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: vertex %d has a self loop", v)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge %d->%d not symmetric", v, w)
			}
		}
	}
	return nil
}

// HasEdge reports whether w appears in v's adjacency list
// (binary search; lists are sorted after construction).
func (g *CSR) HasEdge(v, w int) bool {
	list := g.Neighbors(v)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= int32(w) })
	return i < len(list) && list[i] == int32(w)
}

// BFS runs a breadth-first search from source and returns the visit order
// and the level (distance) of every vertex; unreachable vertices have
// level -1 and do not appear in the order.
func (g *CSR) BFS(source int) (order []int32, level []int32) {
	n := g.NumVertices()
	level = make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	order = make([]int32, 0, n)
	queue := make([]int32, 0, n)
	queue = append(queue, int32(source))
	level[source] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(int(v)) {
			if level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return order, level
}

// Components labels connected components and returns (labels, count).
func (g *CSR) Components() ([]int32, int) {
	n := g.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	count := 0
	queue := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		queue = append(queue[:0], int32(s))
		label[s] = int32(count)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(int(v)) {
				if label[w] < 0 {
					label[w] = int32(count)
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return label, count
}

// PseudoPeripheral returns a pseudo-peripheral vertex of the component
// containing start, found by repeated BFS to the farthest vertex. Such
// vertices make good seeds for partition growing and RCM.
func (g *CSR) PseudoPeripheral(start int) int {
	v := start
	bestEcc := int32(-1)
	for iter := 0; iter < 8; iter++ {
		order, level := g.BFS(v)
		last := order[len(order)-1]
		ecc := level[last]
		if ecc <= bestEcc {
			return v
		}
		bestEcc = ecc
		v = int(last)
	}
	return v
}

// RCM computes a reverse Cuthill–McKee ordering, returning perm where
// perm[i] is the original index of the vertex placed at position i.
// Disconnected components are ordered one after another.
func (g *CSR) RCM() []int32 {
	n := g.NumVertices()
	visited := make([]bool, n)
	perm := make([]int32, 0, n)
	scratch := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		seed := g.PseudoPeripheral(s)
		if visited[seed] {
			seed = s
		}
		queue := []int32{int32(seed)}
		visited[seed] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			perm = append(perm, v)
			scratch = scratch[:0]
			for _, w := range g.Neighbors(int(v)) {
				if !visited[w] {
					visited[w] = true
					scratch = append(scratch, w)
				}
			}
			sort.Slice(scratch, func(i, j int) bool {
				return g.Degree(int(scratch[i])) < g.Degree(int(scratch[j]))
			})
			queue = append(queue, scratch...)
		}
	}
	// Reverse.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Bandwidth reports max |i - pos[j]| over edges under the identity ordering.
func (g *CSR) Bandwidth() int {
	bw := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(v) {
			d := v - int(w)
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// BandwidthUnder reports the bandwidth under a permutation perm, where
// perm[i] is the original vertex placed at position i.
func (g *CSR) BandwidthUnder(perm []int32) int {
	n := g.NumVertices()
	pos := make([]int32, n)
	for i, v := range perm {
		pos[v] = int32(i)
	}
	bw := 0
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			d := int(pos[v] - pos[w])
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}
