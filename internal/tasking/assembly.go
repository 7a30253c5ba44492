package tasking

import (
	"fmt"

	"repro/internal/graph"
)

// Strategy selects how the element loop of a FEM assembly is parallelized
// — the three alternatives of the paper's Figure 4 plus a serial
// reference.
type Strategy uint8

// Assembly strategies.
const (
	// StrategySerial runs the element loop sequentially (reference).
	StrategySerial Strategy = iota
	// StrategyAtomic runs one parallel loop over all elements and makes
	// every scattered update atomic (`omp parallel do` + `omp atomic`).
	StrategyAtomic
	// StrategyColoring partitions elements into conflict-free colors and
	// runs one plain parallel loop per color (Farhat & Crivelli 1989).
	// No atomics, but consecutive elements land on different threads, so
	// spatial locality is lost.
	StrategyColoring
	// StrategyMultidep maps each mesh subdomain to a task and lets tasks
	// of adjacent (node-sharing) subdomains exclude each other through
	// mutexinoutset key sets sized at run time (MutexKeys). No atomics,
	// and each task walks a contiguous, memory-ordered element range, so
	// spatial locality is preserved.
	StrategyMultidep
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case StrategySerial:
		return "Serial"
	case StrategyAtomic:
		return "Atomics"
	case StrategyColoring:
		return "Coloring"
	case StrategyMultidep:
		return "Multidep"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// MutexKeying selects how the multidependences strategy turns subdomain
// adjacency into mutexinoutset keys.
type MutexKeying uint8

const (
	// KeyNeighbors declares, for subdomain task i, mutexinoutset keys
	// {i} ∪ adj(i) — the formulation used by the paper's OmpSs code. Two
	// tasks at graph distance 2 (a common neighbor but no shared node)
	// are serialized too; that over-synchronization is part of the
	// construct's semantics and is ablated in the benchmarks.
	KeyNeighbors MutexKeying = iota
	// KeyEdges declares one key per adjacency edge, giving exact
	// pairwise exclusion: tasks conflict iff their subdomains share a
	// node.
	KeyEdges
)

// Scatter receives the contributions an element kernel produces. AddMat
// accumulates into a matrix entry, AddVec into a right-hand-side entry.
// Assembly strategies choose between a plain (non-atomic) and an atomic
// Scatter implementation supplied by the caller.
type Scatter struct {
	AddMat func(i, j int32, v float64)
	AddVec func(i int32, v float64)
}

// Kernel computes element e's local contribution and scatters it.
type Kernel func(e int, s *Scatter)

// AssemblyPlan carries the precomputed structures each strategy needs.
// Build one per (rank-mesh, strategy) and reuse it every time step; the
// coloring and sub-partition are geometry-only and do not change.
type AssemblyPlan struct {
	Strategy Strategy
	NumElems int

	// Coloring of the element conflict graph (StrategyColoring).
	Coloring *graph.Coloring

	// Subdomain labels per element, subdomain adjacency and keying
	// (StrategyMultidep).
	SubLabels []int32
	SubAdj    *graph.CSR
	NumSub    int
	Keying    MutexKeying

	subElems [][]int32 // elements per subdomain, ascending (locality)

	// runner executes the multidep tasks, built on first use and reused
	// every step (the plan's geometry is static, so the runner is too).
	runner *mutexRunner

	// Prebuilt loop bodies for the ParallelFor-based strategies: one
	// element-range body for Atomics, one per color for Coloring. Like
	// the runner's task bodies they read the argument slots below, so a
	// steady-state Assemble submits only reused closures.
	atomicBody  func(lo, hi int)
	colorBodies []func(lo, hi int)

	// Argument slots the prebuilt bodies read; filled by Assemble
	// around the parallel section, never while one is in flight.
	kernel        Kernel
	plainScatter  *Scatter
	atomicScatter *Scatter
}

// NewSerialPlan builds a plan for the serial reference.
func NewSerialPlan(nElems int) *AssemblyPlan {
	return &AssemblyPlan{Strategy: StrategySerial, NumElems: nElems}
}

// NewAtomicPlan builds a plan for the Atomics strategy.
func NewAtomicPlan(nElems int) *AssemblyPlan {
	return &AssemblyPlan{Strategy: StrategyAtomic, NumElems: nElems}
}

// NewColoringPlan builds a plan for the Coloring strategy from the
// element conflict graph (elements adjacent iff they share a node).
func NewColoringPlan(conflicts *graph.CSR) *AssemblyPlan {
	return &AssemblyPlan{
		Strategy: StrategyColoring,
		NumElems: conflicts.NumVertices(),
		Coloring: graph.BalancedColoring(conflicts),
	}
}

// NewMultidepPlan builds a plan for the Multidependences strategy from an
// element -> subdomain labeling and the subdomain adjacency graph.
func NewMultidepPlan(subLabels []int32, subAdj *graph.CSR, keying MutexKeying) *AssemblyPlan {
	numSub := subAdj.NumVertices()
	subElems := make([][]int32, numSub)
	for e, s := range subLabels {
		subElems[s] = append(subElems[s], int32(e)) // ascending by construction
	}
	return &AssemblyPlan{
		Strategy:  StrategyMultidep,
		NumElems:  len(subLabels),
		SubLabels: subLabels,
		SubAdj:    subAdj,
		NumSub:    numSub,
		Keying:    keying,
		subElems:  subElems,
	}
}

// Assemble runs kernel over every element according to the plan's
// strategy. plain must scatter without synchronization; atomicS must
// scatter atomically (used only by StrategyAtomic). Both must accumulate
// into the same underlying storage.
//
// Assemble routes kernel and scatters through the plan's prebuilt run
// structures (built on first use, reused every step), so a plan may be
// assembled by one goroutine at a time — the per-rank ownership every
// caller in this codebase already has.
func Assemble(pool *Pool, plan *AssemblyPlan, kernel Kernel, plain, atomicS *Scatter) error {
	switch plan.Strategy {
	case StrategySerial:
		for e := 0; e < plan.NumElems; e++ {
			kernel(e, plain)
		}
		return nil

	case StrategyAtomic:
		if atomicS == nil {
			return fmt.Errorf("tasking: StrategyAtomic requires an atomic scatter")
		}
		if plan.atomicBody == nil {
			plan.buildAtomicBody()
		}
		plan.kernel, plan.atomicScatter = kernel, atomicS
		pool.ParallelFor(plan.NumElems, 0, plan.atomicBody)
		plan.kernel, plan.atomicScatter = nil, nil
		return nil

	case StrategyColoring:
		if plan.Coloring == nil {
			return fmt.Errorf("tasking: StrategyColoring requires a coloring")
		}
		if plan.colorBodies == nil {
			plan.buildColorBodies()
		}
		plan.kernel, plan.plainScatter = kernel, plain
		for c, elems := range plan.Coloring.ByColor {
			pool.ParallelFor(len(elems), 0, plan.colorBodies[c])
		}
		plan.kernel, plan.plainScatter = nil, nil
		return nil

	case StrategyMultidep:
		if plan.SubAdj == nil {
			return fmt.Errorf("tasking: StrategyMultidep requires subdomain adjacency")
		}
		return plan.compiled().run(pool, kernel, plain)
	}
	return fmt.Errorf("tasking: unknown strategy %v", plan.Strategy)
}

// compiled returns the plan's multidep runner, building it on first use.
// Only meaningful for StrategyMultidep plans.
func (plan *AssemblyPlan) compiled() *mutexRunner {
	if plan.runner == nil {
		plan.runner = newMutexRunner(plan.SubAdj, plan.Keying, plan.subElems)
	}
	return plan.runner
}

// Compile eagerly builds the strategy's reusable run structures: the
// mutex runner for Multidep, the prebuilt loop bodies for
// Atomics and Coloring. Assemble compiles lazily on first use, so
// calling Compile is optional — it just moves the one-time cost out of
// the first step.
func (plan *AssemblyPlan) Compile() {
	switch plan.Strategy {
	case StrategyMultidep:
		if plan.SubAdj != nil {
			plan.compiled()
		}
	case StrategyAtomic:
		if plan.atomicBody == nil {
			plan.buildAtomicBody()
		}
	case StrategyColoring:
		if plan.Coloring != nil && plan.colorBodies == nil {
			plan.buildColorBodies()
		}
	}
}

// buildAtomicBody prebuilds the Atomics element-range body; kernel and
// scatter flow through the plan's slots.
func (plan *AssemblyPlan) buildAtomicBody() {
	plan.atomicBody = func(lo, hi int) {
		k, sc := plan.kernel, plan.atomicScatter
		for e := lo; e < hi; e++ {
			k(e, sc)
		}
	}
}

// buildColorBodies prebuilds one element-range body per color.
func (plan *AssemblyPlan) buildColorBodies() {
	plan.colorBodies = make([]func(lo, hi int), len(plan.Coloring.ByColor))
	for c, elems := range plan.Coloring.ByColor {
		elems := elems
		plan.colorBodies[c] = func(lo, hi int) {
			k, sc := plan.kernel, plan.plainScatter
			for i := lo; i < hi; i++ {
				k(int(elems[i]), sc)
			}
		}
	}
}
