// Package partition provides the graph partitioning substrate that Metis
// supplies in the paper's toolchain: k-way element partitions for MPI
// domain decomposition, sub-partitions of each rank's elements into the
// OpenMP-task subdomains used by the multidependences strategy, and the
// subdomain adjacency ("shares at least one node") relation that defines
// which tasks are mutually exclusive.
//
// The algorithm is greedy graph growing from pseudo-peripheral seeds
// followed by boundary refinement — the classical approach of Farhat
// (1989), which Metis' recursive schemes descend from. It balances a
// caller-supplied per-element weight, which matters for the study: the
// paper's assembly imbalance (L96 = 0.66) arises precisely because
// partitions balanced by element count are not balanced by per-element
// cost on hybrid meshes.
package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Partition assigns each vertex (mesh element) of a dual graph to a part.
type Partition struct {
	Parts []int32   // vertex -> part index in [0,K)
	K     int       // number of parts
	Loads []float64 // total vertex weight per part
}

// Imbalance returns K * maxLoad / totalLoad; 1.0 is perfect balance.
func (p *Partition) Imbalance() float64 {
	total, max := 0.0, 0.0
	for _, l := range p.Loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(p.K) * max / total
}

// LoadBalance returns the paper's Ln metric, eq. (9): sum(loads) /
// (K * maxLoad). Ln = 1 is perfectly balanced.
func (p *Partition) LoadBalance() float64 {
	ib := p.Imbalance()
	if ib == 0 {
		return 1
	}
	return 1 / ib
}

// Validate checks that every vertex is assigned and loads are consistent
// with weights.
func (p *Partition) Validate(weights []float64) error {
	if len(p.Parts) != len(weights) {
		return fmt.Errorf("partition: %d assignments for %d weights", len(p.Parts), len(weights))
	}
	loads := make([]float64, p.K)
	for v, part := range p.Parts {
		if part < 0 || int(part) >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to invalid part %d", v, part)
		}
		loads[part] += weights[v]
	}
	for i := range loads {
		if math.Abs(loads[i]-p.Loads[i]) > 1e-6*(1+math.Abs(loads[i])) {
			return fmt.Errorf("partition: recorded load[%d]=%g, recomputed %g", i, p.Loads[i], loads[i])
		}
	}
	return nil
}

// KWay partitions the n vertices of dual into k parts, balancing the given
// per-vertex weights. weights may be nil for uniform weights. It is the
// one-shot form of Scratch.KWay (identical results); repeated callers —
// sweeps building many partitions per process — should hold a Scratch.
func KWay(dual *graph.CSR, weights []float64, k int) (*Partition, error) {
	return NewScratch().KWay(dual, weights, k)
}

// refine runs boundary-move passes: a vertex on a part boundary moves to a
// neighboring part when that strictly lowers the maximum of the two loads
// involved (a Kernighan–Lin style balance criterion without the full gain
// queue). cand is the candidate-part scratch list, retained by the caller
// across calls.
func refine(dual *graph.CSR, weights []float64, p *Partition, passes int, cand *[]int32) {
	n := dual.NumVertices()
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			from := p.Parts[v]
			// Candidate parts among neighbors.
			candidates := (*cand)[:0]
			for _, w := range dual.Neighbors(v) {
				pw := p.Parts[w]
				if pw != from && !containsPart(candidates, pw) {
					candidates = append(candidates, pw)
				}
			}
			*cand = candidates // retain capacity growth across vertices
			if len(candidates) == 0 {
				continue
			}
			wv := weights[v]
			bestTo := int32(-1)
			bestMax := math.Max(p.Loads[from], 0)
			for _, to := range candidates {
				curMax := math.Max(p.Loads[from], p.Loads[to])
				newMax := math.Max(p.Loads[from]-wv, p.Loads[to]+wv)
				if newMax < curMax && newMax < bestMax {
					bestTo = to
					bestMax = newMax
				}
			}
			if bestTo >= 0 {
				p.Loads[from] -= wv
				p.Loads[bestTo] += wv
				p.Parts[v] = bestTo
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

func containsPart(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// EdgeCut returns the number of dual-graph edges crossing between parts
// (each counted once).
func EdgeCut(dual *graph.CSR, parts []int32) int {
	cut := 0
	for v := 0; v < dual.NumVertices(); v++ {
		for _, w := range dual.Neighbors(v) {
			if int32(v) < w && parts[v] != parts[w] {
				cut++
			}
		}
	}
	return cut
}

// PartAdjacency builds the adjacency graph between parts: two parts are
// adjacent iff some dual edge joins them. For element partitions of a mesh
// dual-by-node graph this is exactly the "subdomains share at least one
// node" relation the multidependences strategy needs.
func PartAdjacency(dual *graph.CSR, parts []int32, k int) *graph.CSR {
	lists := make([][]int32, k)
	for v := 0; v < dual.NumVertices(); v++ {
		pv := parts[v]
		for _, w := range dual.Neighbors(v) {
			pw := parts[w]
			if pv != pw {
				lists[pv] = append(lists[pv], pw)
			}
		}
	}
	return graph.FromAdjacency(lists)
}
