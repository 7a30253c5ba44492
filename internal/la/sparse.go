// Package la provides the sparse linear algebra used by the flow solver:
// CSR matrices assembled from finite-element meshes, and the two Krylov
// solvers that constitute the paper's "Solver1" (momentum) and "Solver2"
// (continuity) phases — BiCGSTAB for the nonsymmetric momentum system and
// conjugate gradients for the symmetric pressure system, both with Jacobi
// (diagonal) preconditioning, which is what Alya production runs of this
// case use.
package la

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// CSRMatrix is a square sparse matrix in compressed sparse row format.
// The column pattern is fixed at construction; values are accumulated
// in place during assembly.
type CSRMatrix struct {
	N   int
	Ptr []int32
	Col []int32
	Val []float64
}

// NewCSRFromGraph builds a matrix whose sparsity pattern is the node
// adjacency graph plus the diagonal — the standard FEM stencil. Column
// indices within a row are ascending.
//
// The diagonal-insertion walk assumes each adjacency list is strictly
// ascending with no self loops (true for graphs built by the graph
// package, whose constructors sort and dedupe). Hand-built CSR inputs
// may violate that, and the walk would then silently emit an unsorted,
// duplicated column pattern that breaks Find's binary search — so
// inputs are validated first and rebuilt through a sanitizing slow path
// when anything is out of order.
func NewCSRFromGraph(g *graph.CSR) *CSRMatrix {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if !adjacencyClean(g.Neighbors(v), int32(v)) {
			return newCSRFromUnsortedGraph(g)
		}
	}
	ptr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		ptr[v+1] = ptr[v] + int32(g.Degree(v)) + 1 // +1 diagonal
	}
	col := make([]int32, ptr[n])
	for v := 0; v < n; v++ {
		w := ptr[v]
		placedDiag := false
		for _, u := range g.Neighbors(v) {
			if !placedDiag && u > int32(v) {
				col[w] = int32(v)
				w++
				placedDiag = true
			}
			col[w] = u
			w++
		}
		if !placedDiag {
			col[w] = int32(v)
		}
	}
	return &CSRMatrix{N: n, Ptr: ptr, Col: col, Val: make([]float64, ptr[n])}
}

// adjacencyClean reports whether list is strictly ascending and free of
// the self loop v.
func adjacencyClean(list []int32, v int32) bool {
	for i, u := range list {
		if u == v || (i > 0 && u <= list[i-1]) {
			return false
		}
	}
	return true
}

// newCSRFromUnsortedGraph builds the same pattern as NewCSRFromGraph
// from adjacency lists in arbitrary order, possibly with duplicates and
// self loops: each row becomes the sorted unique neighbor set plus the
// diagonal.
func newCSRFromUnsortedGraph(g *graph.CSR) *CSRMatrix {
	n := g.NumVertices()
	rows := make([][]int32, n)
	for v := 0; v < n; v++ {
		row := append([]int32{int32(v)}, g.Neighbors(v)...)
		slices.Sort(row)
		dst := row[:1]
		for _, u := range row[1:] {
			if u != dst[len(dst)-1] {
				dst = append(dst, u)
			}
		}
		rows[v] = dst
	}
	ptr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		ptr[v+1] = ptr[v] + int32(len(rows[v]))
	}
	col := make([]int32, 0, ptr[n])
	for v := 0; v < n; v++ {
		col = append(col, rows[v]...)
	}
	return &CSRMatrix{N: n, Ptr: ptr, Col: col, Val: make([]float64, ptr[n])}
}

// Zero clears all stored values (keeps the pattern).
func (a *CSRMatrix) Zero() {
	for i := range a.Val {
		a.Val[i] = 0
	}
}

// Find returns the value-slot index for entry (i,j), or -1 if (i,j) is not
// in the pattern. Binary search over the sorted row.
func (a *CSRMatrix) Find(i, j int32) int {
	lo, hi := a.Ptr[i], a.Ptr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.Col[mid] < j:
			lo = mid + 1
		case a.Col[mid] > j:
			hi = mid
		default:
			return int(mid)
		}
	}
	return -1
}

// Add accumulates v into entry (i,j); it panics if the entry is outside
// the pattern, which indicates an assembly bug.
func (a *CSRMatrix) Add(i, j int32, v float64) {
	k := a.Find(i, j)
	if k < 0 {
		panic(fmt.Sprintf("la: entry (%d,%d) outside matrix pattern", i, j))
	}
	a.Val[k] += v
}

// MulVec computes y = A x.
func (a *CSRMatrix) MulVec(x, y []float64) {
	a.mulVecRows(x, y, 0, a.N)
}

// mulVecRows computes y[lo:hi] = (A x)[lo:hi]. It walks two rows at a
// time with one accumulator per row, so two independent FP-add chains
// are in flight, but each row is still reduced strictly left to right:
// rows are interleaved, never reassociated, and row-blocked parallel
// execution (ParOps) at any [lo,hi) produces exactly the serial MulVec
// bits. Rows are resliced up front so the inner loops carry no bounds
// checks on Col/Val (only the x gather keeps one).
func (a *CSRMatrix) mulVecRows(x, y []float64, lo, hi int) {
	ptr, y := a.Ptr[lo:hi+1], y[lo:hi]
	i := 0
	for ; i+1 < len(y); i += 2 {
		c0, v0 := a.row(ptr[i], ptr[i+1])
		c1, v1 := a.row(ptr[i+1], ptr[i+2])
		n := min(len(c0), len(c1))
		s0, s1 := 0.0, 0.0
		ca, va, cb, vb := c0[:n], v0[:n], c1[:n], v1[:n]
		for k := range ca {
			s0 += va[k] * x[ca[k]]
			s1 += vb[k] * x[cb[k]]
		}
		y[i] = rowTail(s0, c0[n:], v0[n:], x)
		y[i+1] = rowTail(s1, c1[n:], v1[n:], x)
	}
	if i < len(y) {
		c, v := a.row(ptr[i], ptr[i+1])
		y[i] = rowTail(0, c, v, x)
	}
}

// row returns the column and value slices of the row spanning slots
// [p,q), with equal lengths the compiler can see.
func (a *CSRMatrix) row(p, q int32) ([]int32, []float64) {
	c := a.Col[p:q]
	return c, a.Val[p:q][:len(c)]
}

// rowTail continues a row's left-to-right reduction from sum over the
// remaining entries.
func rowTail(sum float64, c []int32, v []float64, x []float64) float64 {
	v = v[:len(c)]
	for k, j := range c {
		sum += v[k] * x[j]
	}
	return sum
}

// Diagonal extracts the matrix diagonal into d.
func (a *CSRMatrix) Diagonal(d []float64) {
	for i := 0; i < a.N; i++ {
		d[i] = 0
		if k := a.Find(int32(i), int32(i)); k >= 0 {
			d[i] = a.Val[k]
		}
	}
}

// SetDirichletRow replaces row i with the identity row (diagonal 1, rest
// 0), the standard strong boundary-condition treatment.
func (a *CSRMatrix) SetDirichletRow(i int32) {
	for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
		if a.Col[k] == i {
			a.Val[k] = 1
		} else {
			a.Val[k] = 0
		}
	}
}

// DropZeros removes the stored entries whose value is ±0, for a matrix
// whose values are final. Val is compacted in place; Ptr and Col are
// rebuilt at exact size, so a matrix sharing the old pattern (as the
// flow solver's momentum matrix shares the pressure matrix's) keeps it.
// Column order within a row is kept, so Find still works.
//
// MulVec keeps its bits on finite x: a row sum starts at +0 and never
// becomes −0 (x + (−x) rounds to +0), and adding ±0·x[j] = ±0 to a sum
// that is not −0 leaves it unchanged. With a non-finite x[j] the
// dropped 0·x[j] would have made the row NaN. Diagonal reads a dropped
// diagonal as +0, as it reads one outside the pattern.
func (a *CSRMatrix) DropZeros() {
	nnz := 0
	for _, v := range a.Val {
		if v != 0 {
			nnz++
		}
	}
	ptr, col := make([]int32, a.N+1), make([]int32, nnz)
	w := 0
	for i := 0; i < a.N; i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if v := a.Val[k]; v != 0 {
				col[w], a.Val[w] = a.Col[k], v
				w++
			}
		}
		ptr[i+1] = int32(w)
	}
	a.Ptr, a.Col, a.Val = ptr, col, a.Val[:nnz]
}

// NNZ reports the number of stored entries.
func (a *CSRMatrix) NNZ() int { return len(a.Val) }

// Dot returns the Euclidean inner product of x and y.
func Dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}
