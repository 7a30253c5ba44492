package repro

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/particles"
	"repro/internal/tasking"
)

// SolverKernelReport measures the threaded deterministic la kernels that
// back the paper's Solver1/Solver2 phases — SpMV, the fixed-chunk inner
// product, and full fixed-iteration Krylov sweeps — serial versus pooled
// at 2 and 4 workers, plus the Ganser drag correlation's exp/log path
// (its math.Pow reference is a test oracle; `go test -bench GanserCd
// ./internal/particles` races the two). It backs the registered "solver"
// scenario (`benchfig -exp solver`); `go test -bench
// 'SpMV|Dot|PCG|BiCGSTAB'` gives the same numbers with testing-grade
// methodology. All pooled kernels are bit-identical to
// their serial references at any worker count (the la equivalence
// suite's contract), so the speedups come with no numerical drift.
func SolverKernelReport() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Solver kernel A/B — threaded deterministic la kernels\n")

	// A momentum-like sparsity pattern: the node graph of a refined
	// generation-4 airway (the FEM stencil the real solver assembles
	// into, ~50k nodes so the pooled kernels actually fan out), with
	// synthetic diagonally dominant values.
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 4
	mc.NTheta = 24
	mc.NRadial = 4
	mc.NBoundaryLayers = 3
	mc.NAxial = 16
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		return "", err
	}
	a, err := airwayNodeMatrix(m)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  matrix: %s node graph, n=%d, nnz=%d\n", m.Summary(), a.N, a.NNZ())

	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = math.Sin(float64(i) / 100)
	}
	diag := make([]float64, a.N)
	a.Diagonal(diag)

	pools := []struct {
		label   string
		workers int
	}{{"serial", 0}, {"pool-2", 2}, {"pool-4", 4}}

	section := func(name string, run func(par *la.ParOps)) {
		var base time.Duration
		for _, pc := range pools {
			var par *la.ParOps
			var pool *tasking.Pool
			if pc.workers > 0 {
				pool = tasking.NewPool(pc.workers)
				par = la.NewParOps(pool)
			}
			d := bestOf(3, func() { run(par) })
			if pool != nil {
				pool.Close()
			}
			if pc.workers == 0 {
				base = d
				fmt.Fprintf(&sb, "  %-28s %-8s %v\n", name+":", pc.label, d.Round(time.Microsecond))
			} else {
				fmt.Fprintf(&sb, "  %-28s %-8s %v (%.2fx)\n", name+":", pc.label,
					d.Round(time.Microsecond), float64(base)/float64(d))
			}
		}
	}

	section("SpMV x32", func(par *la.ParOps) {
		for k := 0; k < 32; k++ {
			if par == nil {
				a.MulVec(x, y)
			} else {
				par.MulVec(a, x, y)
			}
		}
	})
	section("Dot x32 (fixed-chunk)", func(par *la.ParOps) {
		s := 0.0
		for k := 0; k < 32; k++ {
			if par == nil {
				s += la.DotChunked(x, x)
			} else {
				s += par.Dot(x, x)
			}
		}
		sinkReport = s
	})
	rhs := make([]float64, a.N)
	rhs[a.N/2] = 1
	section("PCG 40 iters", func(par *la.ParOps) {
		ops := la.OpsFromMatrix(a)
		if par != nil {
			ops = la.ParOpsFromMatrix(a, par)
		}
		xs := make([]float64, a.N)
		if _, err := la.PCG(ops, la.JacobiPreconditioner(diag), rhs, xs, 0, 40); err != nil && err != la.ErrBreakdown {
			panic(err)
		}
	})
	section("BiCGSTAB 20 iters", func(par *la.ParOps) {
		ops := la.OpsFromMatrix(a)
		if par != nil {
			ops = la.ParOpsFromMatrix(a, par)
		}
		xs := make([]float64, a.N)
		if _, err := la.BiCGSTAB(ops, la.JacobiPreconditioner(diag), rhs, xs, 0, 20); err != nil && err != la.ErrBreakdown {
			panic(err)
		}
	})

	// Ganser drag correlation: the particle-step hotspot (~40% of Step in
	// math.Pow before the exp/log rewrite).
	res := make([]float64, 1024)
	for i := range res {
		res[i] = math.Pow(10, -6+12*float64(i)/float64(len(res)))
	}
	const evals = 200_000
	tFast := bestOf(3, func() {
		s := 0.0
		for i := 0; i < evals; i++ {
			s += particles.GanserCd(res[i%len(res)])
		}
		sinkReport = s
	})
	fmt.Fprintf(&sb, "  GanserCd %d evals:        exp/log  %v\n", evals, tFast.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  (pooled kernels are bit-identical to the serial references at any worker count;\n")
	fmt.Fprintf(&sb, "   speedups need >1 CPU — on a 1-CPU container the ratios hover around 1x)\n")
	return sb.String(), nil
}

var sinkReport float64

// airwayNodeMatrix builds the FEM-stencil CSR matrix of the mesh's node
// adjacency graph with synthetic symmetric diagonally dominant values
// (a stand-in for the assembled pressure Laplacian).
func airwayNodeMatrix(m *mesh.Mesh) (*la.CSRMatrix, error) {
	lists := make([][]int32, m.NumNodes())
	for e := 0; e < m.NumElems(); e++ {
		nodes := m.ElemNodes(e)
		for _, u := range nodes {
			for _, v := range nodes {
				if u != v {
					lists[u] = append(lists[u], v)
				}
			}
		}
	}
	g := graph.FromAdjacency(lists)
	a := la.NewCSRFromGraph(g)
	for i := 0; i < a.N; i++ {
		row := 0.0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if a.Col[k] != int32(i) {
				a.Val[k] = -1
				row++
			}
		}
		if k := a.Find(int32(i), int32(i)); k >= 0 {
			a.Val[k] = row + 1
		}
	}
	return a, nil
}
