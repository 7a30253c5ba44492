package partition

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mesh"
)

// RankMesh is the per-MPI-rank view of a distributed mesh: the elements
// the rank owns, the nodes those elements touch (local numbering), which
// of those nodes the rank owns (owner = lowest rank touching the node),
// and the halo exchange lists with each neighboring rank. This mirrors
// Alya's MPI domain decomposition.
type RankMesh struct {
	Rank  int
	Elems []int32 // global element ids owned by this rank

	// GlobalNode maps local node index -> global node id (ascending).
	GlobalNode []int32
	// LocalNode maps global node id -> local index, or -1.
	LocalNode []int32
	// Owned[i] reports whether local node i is owned by this rank.
	Owned []bool
	// NumOwned counts owned local nodes.
	NumOwned int

	// LocalConn is the rank-local element connectivity, in the same
	// element order as Elems, flattened with LocalPtr offsets.
	LocalConn []int32
	LocalPtr  []int32
	Kinds     []mesh.Kind

	// Halos lists, per neighboring rank, the shared local node indices in
	// an order both sides agree on (ascending global id). Interface
	// assembly sums contributions across these lists.
	Halos []Halo
}

// Halo is the shared-node list with one neighboring rank.
type Halo struct {
	Peer  int
	Nodes []int32 // local node indices, ascending global id
}

// NumLocalNodes reports the number of nodes touched by this rank.
func (rm *RankMesh) NumLocalNodes() int { return len(rm.GlobalNode) }

// NumElems reports the number of elements owned by this rank.
func (rm *RankMesh) NumElems() int { return len(rm.Elems) }

// ElemNodesLocal returns the local node indices of rank-local element e.
func (rm *RankMesh) ElemNodesLocal(e int) []int32 {
	return rm.LocalConn[rm.LocalPtr[e]:rm.LocalPtr[e+1]]
}

// BuildRankMeshes splits mesh m into k per-rank views according to the
// element partition parts (element -> rank). It is the one-shot form of
// Scratch.BuildRankMeshes (identical results); repeated callers should
// hold a Scratch to reuse the intermediate tables.
func BuildRankMeshes(m *mesh.Mesh, parts []int32, k int) ([]*RankMesh, error) {
	return NewScratch().BuildRankMeshes(m, parts, k)
}

// Validate checks cross-rank invariants: each global node owned exactly
// once, halo lists symmetric and aligned between peers.
func ValidateRankMeshes(rms []*RankMesh, numGlobalNodes int) error {
	ownerCount := make([]int, numGlobalNodes)
	for _, rm := range rms {
		for i, g := range rm.GlobalNode {
			if rm.Owned[i] {
				ownerCount[g]++
			}
		}
	}
	for g, c := range ownerCount {
		if c > 1 {
			return fmt.Errorf("partition: node %d owned by %d ranks", g, c)
		}
	}
	// Halo symmetry: rm_a's halo with b must list the same globals as
	// rm_b's halo with a, in the same order.
	for _, a := range rms {
		for _, h := range a.Halos {
			b := rms[h.Peer]
			var back *Halo
			for i := range b.Halos {
				if b.Halos[i].Peer == a.Rank {
					back = &b.Halos[i]
					break
				}
			}
			if back == nil {
				return fmt.Errorf("partition: rank %d has halo with %d but not vice versa", a.Rank, h.Peer)
			}
			if len(back.Nodes) != len(h.Nodes) {
				return fmt.Errorf("partition: halo size mismatch %d<->%d: %d vs %d",
					a.Rank, h.Peer, len(h.Nodes), len(back.Nodes))
			}
			for i := range h.Nodes {
				if a.GlobalNode[h.Nodes[i]] != b.GlobalNode[back.Nodes[i]] {
					return fmt.Errorf("partition: halo order mismatch %d<->%d at %d",
						a.Rank, h.Peer, i)
				}
			}
		}
	}
	return nil
}

// SubPartition splits one rank's elements into nsub task subdomains,
// returning the per-element subdomain labels (indexed like rm.Elems) and
// the subdomain adjacency graph ("share at least one local node") that
// drives the multidependences mutual-exclusion constraints.
func SubPartition(rm *RankMesh, weights []float64, nsub int) ([]int32, *graph.CSR, error) {
	if nsub <= 0 {
		return nil, nil, fmt.Errorf("partition: nsub must be positive")
	}
	// Local dual graph by shared local node.
	inc := &graph.CSR{Ptr: rm.LocalPtr, Adj: rm.LocalConn}
	dual := graph.Shared(inc, graph.Transpose(inc, rm.NumLocalNodes()))
	p, err := KWay(dual, weights, nsub)
	if err != nil {
		return nil, nil, err
	}
	adj := PartAdjacency(dual, p.Parts, nsub)
	return p.Parts, adj, nil
}
