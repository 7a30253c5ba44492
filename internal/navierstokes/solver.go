// Package navierstokes implements the paper's fluid code: a distributed
// stabilized finite-element fractional-step solver for incompressible
// flow (eqs. 1-2) on hybrid airway meshes, with exactly the phase
// structure the paper profiles in Figure 2 and Table 1:
//
//	Matrix assembly -> Solver1 (momentum, BiCGSTAB) ->
//	Solver2 (continuity/pressure, CG) -> SGS (subgrid-scale vector)
//
// Each MPI rank (a simmpi goroutine) owns the elements of one partition
// subdomain, assembles its local matrices with a configurable tasking
// strategy (Atomics / Coloring / Multidependences), and cooperates
// through halo sums and allreduce-based inner products.
//
// The solver also does deterministic virtual-time accounting per phase
// through a trace.RankTracer, which is what regenerates Table 1 and
// Figure 2 independently of the host machine.
package navierstokes

import (
	"fmt"
	"sync"

	"repro/internal/fem"
	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

// Config controls one solver instance.
type Config struct {
	Props fem.FluidProps

	// Strategy parallelizes the momentum assembly (SGS needs none).
	Strategy tasking.Strategy

	// InletVelocity is the peak inlet Dirichlet velocity. Inflow scales
	// it over simulation time (nil = constant inflow, the pre-waveform
	// behaviour, bit-identical to SteadyWaveform but without the
	// multiply). See InletVelocityAt.
	InletVelocity mesh.Vec3
	Inflow        Waveform

	TolMomentum, TolPressure         float64
	MaxIterMomentum, MaxIterPressure int

	// HealthCheck enables the per-step residual-divergence guard: a
	// momentum or pressure residual above MaxResidual fails the step
	// with *ErrDiverged instead of marching a blown-up field. NaN/Inf
	// residuals fail the step regardless (they are unconditionally
	// garbage). Off by default — the guard reuses already-computed
	// norms and allocates nothing, but stays opt-in so default runs
	// are bit-for-bit the pre-guard binary.
	HealthCheck bool
	// MaxResidual is the relative-residual divergence threshold when
	// HealthCheck is set; 0 means DefaultMaxResidual.
	MaxResidual float64
}

// DefaultConfig returns production-like settings: multidependences
// assembly (the paper's best), air at rest driven by a rapid inhalation
// at the inlet.
func DefaultConfig() Config {
	return Config{
		Props:           fem.FluidProps{Rho: 1.204, Mu: 1.82e-5, Dt: 1e-4, SUPG: true},
		Strategy:        tasking.StrategyMultidep,
		InletVelocity:   mesh.Vec3{Z: -1.5}, // rapid inhalation, ~1.5 m/s at the face
		TolMomentum:     1e-8,
		TolPressure:     1e-8,
		MaxIterMomentum: 400,
		MaxIterPressure: 800,
	}
}

// CostModel converts work counts into deterministic virtual seconds for
// the phase tracer. Units are arbitrary; the experiment harness sets them
// from the architecture profiles.
type CostModel struct {
	AssemblyUnit float64 // per fem.CostWeight unit
	SolverUnit   float64 // momentum solver, per nonzero per iteration
	Solver2Unit  float64 // pressure solver, per nonzero per iteration (0 = SolverUnit)
	SGSUnit      float64 // per fem.CostWeight unit in the SGS loop
}

// solver2Unit returns the pressure-solver unit, defaulting to SolverUnit.
func (c CostModel) solver2Unit() float64 {
	if c.Solver2Unit != 0 {
		return c.Solver2Unit
	}
	return c.SolverUnit
}

// DefaultCostModel returns unit costs calibrated so that the phase shares
// of a pure-MPI respiratory run reproduce Table 1's distribution.
func DefaultCostModel() CostModel {
	return CostModel{AssemblyUnit: 1.0, SolverUnit: 0.006, Solver2Unit: 6e-5, SGSUnit: 0.52}
}

// StepStats reports one time step.
type StepStats struct {
	MomentumIters int
	PressureIters int
	MomentumRes   float64
	PressureRes   float64
	// MomentumConverged is set when all three momentum solves met
	// TolMomentum, PressureConverged when the pressure solve met
	// TolPressure.
	MomentumConverged bool
	PressureConverged bool
	// Breakdowns counts the step's solves that ended in la.ErrBreakdown;
	// the step goes on from their last iterate.
	Breakdowns int
}

// SolveCounts tallies a rank's Krylov solves over the steps it ran.
type SolveCounts struct {
	Solves     int // momentum components and pressure solves
	Iterations int
	// PressureCapped counts pressure solves that stopped unconverged at
	// MaxIterPressure.
	PressureCapped int
	Breakdowns     int // solves that ended in la.ErrBreakdown
}

// Add accumulates o into c.
func (c *SolveCounts) Add(o SolveCounts) {
	c.Solves += o.Solves
	c.Iterations += o.Iterations
	c.PressureCapped += o.PressureCapped
	c.Breakdowns += o.Breakdowns
}

// Solver is the per-rank solver state.
type Solver struct {
	M    *mesh.Mesh
	RM   *partition.RankMesh
	Comm *simmpi.Comm
	Pool *tasking.Pool
	Cfg  Config
	Cost CostModel
	// Tracer records deterministic per-phase virtual time; may be nil.
	Tracer *trace.RankTracer

	A *la.CSRMatrix // momentum matrix (rebuilt each step)
	L *la.CSRMatrix // pressure Laplacian (constant; Dirichlet-fixed; zeros dropped)

	U    [3][]float64 // velocity components at local nodes
	Uold [3][]float64
	P    []float64
	SGS  []mesh.Vec3 // per local element subgrid velocity

	// invMult[i] is this rank's share of local node i: 1/m where m is
	// the number of ranks holding the node. A Dirichlet diagonal is set
	// to invMult so that the halo sum over all sharing ranks restores a
	// unit diagonal.
	invMult   []float64
	inletLoc  []int32 // local nodes with inlet Dirichlet velocity
	wallLoc   []int32 // local nodes with no-slip Dirichlet
	outletLoc []int32 // local nodes with p = 0 Dirichlet
	dirichlet []bool  // union mask for velocity BCs
	isDirP    []bool  // pressure BC mask
	tagSeq    int
	// stepIndex counts completed steps; step k advances the flow to
	// simulation time (k+1)*Dt, where the inlet waveform is evaluated.
	// Multiplication (not accumulation) keeps the time drift-free and
	// identical on every rank.
	stepIndex int
	numWeight float64 // sum of element cost weights (assembly work)
	ownedNNZ  float64 // matrix nonzeros in owned rows (solver work)
	scratch   sync.Pool
	plan      *tasking.AssemblyPlan
	// atomicMat/atomicVec are the atomics strategy's accumulators (nil
	// under the other strategies).
	atomicMat *tasking.AtomicFloat64Slice
	atomicVec *tasking.AtomicFloat64Slice
	rhs       [3][]float64
	prhs      []float64
	gradScr   [3][]float64
	// geom holds the static geometry records of the rank's elements;
	// every element loop reads them instead of recomputing Jacobians.
	geom *fem.Geometry
	// lumped is the halo-summed lumped mass of each local node; the mesh
	// never moves, so it is built once.
	lumped []float64

	// par runs the per-rank la kernels (SpMV, reductions, vector
	// updates) on this rank's pool with the deterministic fixed-chunk
	// contract — the Solver1/Solver2 threading the paper's Table 1
	// motivates.
	par *la.ParOps
	// Per-(element,node) staging for the compute-parallel/scatter-serial
	// loops, packed like RM.LocalConn: elemFe holds
	// assemblePressureRHS's RHS entries (element e's at LocalPtr[e]),
	// elemCorr correctVelocity's gradient contributions (3 floats per
	// slot, at 3*LocalPtr[e]). The two are never live at once, so elemFe
	// aliases the front of elemCorr.
	elemFe   []float64
	elemCorr []float64

	// Steady-state allocation discipline: everything the step loop needs
	// is built once here and reused — the Krylov workspace, the
	// distributed ops (whose closures would otherwise be remade per
	// solve), the Jacobi diagonals/appliers (the pressure matrix L is
	// constant, so its preconditioner is built once; the momentum
	// diagonal is refreshed in place each step), and the assembly
	// kernels/scatters.
	ws         *la.KrylovWorkspace
	opsA, opsL la.Ops
	diag       []float64 // momentum diagonal scratch (refreshed per step)
	momInv     []float64 // momentum Jacobi inverse (refreshed per step)
	momPrecond func(r, z []float64)
	lPrecond   func(r, z []float64)

	asmKernel                   tasking.Kernel
	asmPlain, asmAtomic         *tasking.Scatter
	sgsBody, prhsBody, corrBody func(lo, hi int)
	corrFinalBody               func(lo, hi int)

	counts SolveCounts
}

// Counts reports the solves of every step this solver has run.
func (s *Solver) Counts() SolveCounts { return s.counts }

// NewSolver builds the per-rank solver on the rank's pool, which must not
// be nil. All ranks of comm must call it collectively with their own
// RankMesh from the same partition.
func NewSolver(m *mesh.Mesh, rm *partition.RankMesh, comm *simmpi.Comm, pool *tasking.Pool, cfg Config, cost CostModel, tracer *trace.RankTracer) (*Solver, error) {
	n := rm.NumLocalNodes()
	s := &Solver{
		M: m, RM: rm, Comm: comm, Pool: pool, Cfg: cfg, Cost: cost, Tracer: tracer,
		P:    make([]float64, n),
		SGS:  make([]mesh.Vec3, rm.NumElems()),
		prhs: make([]float64, n),
	}
	for c := 0; c < 3; c++ {
		s.U[c] = make([]float64, n)
		s.Uold[c] = make([]float64, n)
		s.rhs[c] = make([]float64, n)
		s.gradScr[c] = make([]float64, n)
	}
	s.scratch.New = func() any { return new(fem.Scratch) }
	s.par = la.NewParOps(pool)
	s.elemCorr = make([]float64, 3*len(rm.LocalConn))
	s.elemFe = s.elemCorr[:len(rm.LocalConn)]

	for e := 0; e < rm.NumElems(); e++ {
		s.numWeight += fem.CostWeight(rm.Kinds[e])
	}
	// Local node graph -> one matrix pattern, shared by A and L until
	// L drops its zeros below (the solver only ever writes Val).
	inc := &graph.CSR{Ptr: rm.LocalPtr, Adj: rm.LocalConn}
	s.A = la.NewCSRFromGraph(graph.Shared(graph.Transpose(inc, n), inc))
	s.L = &la.CSRMatrix{N: s.A.N, Ptr: s.A.Ptr, Col: s.A.Col, Val: make([]float64, len(s.A.Val))}
	if cfg.Strategy == tasking.StrategyAtomic {
		s.atomicMat = tasking.NewAtomicFloat64Slice(s.A.NNZ())
		s.atomicVec = tasking.NewAtomicFloat64Slice(3 * n)
	}

	// Per-node rank share 1/m, m = number of ranks holding the node
	// (used for Dirichlet diagonals under halo summation).
	shared := make([]int, n)
	for _, h := range rm.Halos {
		for _, ln := range h.Nodes {
			shared[ln]++
		}
	}
	s.invMult = make([]float64, n)
	for i := range s.invMult {
		s.invMult[i] = 1 / float64(1+shared[i])
	}
	// Solver work accounting: each row's nonzeros, with shared rows
	// split among the ranks computing them (each rank counts its 1/m
	// share).
	for i := 0; i < n; i++ {
		s.ownedNNZ += float64(s.A.Ptr[i+1]-s.A.Ptr[i]) * s.invMult[i]
	}

	// Boundary node sets, localized.
	s.dirichlet = make([]bool, n)
	s.isDirP = make([]bool, n)
	mark := func(globals []int32, dst *[]int32, mask []bool) {
		for _, g := range globals {
			if l := rm.LocalNode[g]; l >= 0 && !mask[l] {
				mask[l] = true
				*dst = append(*dst, l)
			}
		}
	}
	mark(m.WallNodes, &s.wallLoc, s.dirichlet)
	mark(m.InletNodes, &s.inletLoc, s.dirichlet)
	mark(m.OutletNodes, &s.outletLoc, s.isDirP)
	// Inlet nodes that are also wall nodes keep the no-slip value; drop
	// them from the inlet list.
	wallSet := make(map[int32]bool, len(s.wallLoc))
	for _, l := range s.wallLoc {
		wallSet[l] = true
	}
	kept := s.inletLoc[:0]
	for _, l := range s.inletLoc {
		if !wallSet[l] {
			kept = append(kept, l)
		}
	}
	s.inletLoc = kept

	// Assembly plan.
	var err error
	s.plan, err = s.buildPlan(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	// Freeze the strategy's reusable run structures now (for multidep,
	// the compiled task graph). Assemble would compile lazily on first
	// use; doing it here keeps even the first step allocation-free and
	// makes the plan's persistence explicit: the plan — and with it its
	// compiled graph and this solver's kernels/scatters below — lives
	// for the whole run.
	s.plan.Compile()

	// The static element geometry and what is built from it alone: the
	// constant pressure Laplacian and the lumped mass. L's values are
	// final now, so the zeros of its Dirichlet rows and columns leave
	// its pattern (exact on finite iterates, see DropZeros); ownedNNZ
	// was counted from A's pattern and does not change.
	s.assembleStatic()
	s.L.DropZeros()

	// One-time construction of everything the step loop reuses (the
	// zero-allocation steady state). L never changes after this point,
	// so its halo-summed diagonal — and therefore the Solver2 Jacobi
	// preconditioner — is computed once here; note the haloSum makes
	// this part of the collective construction contract. The momentum
	// preconditioner's inverse diagonal is refreshed in place each step
	// through the same applier closure.
	s.ws = la.NewKrylovWorkspace(n)
	s.opsA = s.ops(s.A)
	s.opsL = s.ops(s.L)
	s.diag = make([]float64, n)
	s.momInv = make([]float64, n)
	s.momPrecond = la.JacobiApplier(s.momInv)
	s.L.Diagonal(s.diag)
	s.haloSum(s.diag)
	lInv := make([]float64, n)
	la.JacobiInvInto(s.diag, lInv)
	s.lPrecond = la.JacobiApplier(lInv)
	s.buildStepClosures()

	return s, nil
}

// buildPlan constructs the parallelization plan of a scattered-reduction
// element loop over this rank's elements under a strategy (Atomics /
// Coloring / Multidependences), including the Metis-style sub-partition
// and the mutexinoutset dependence construction for multidependences.
// The pool's maximum size sets the multidep task count.
func (s *Solver) buildPlan(strategy tasking.Strategy) (*tasking.AssemblyPlan, error) {
	rm := s.RM
	ne := rm.NumElems()
	switch strategy {
	case tasking.StrategySerial:
		return tasking.NewSerialPlan(ne), nil
	case tasking.StrategyAtomic:
		return tasking.NewAtomicPlan(ne), nil
	case tasking.StrategyColoring:
		return tasking.NewColoringPlan(localConflicts(rm)), nil
	case tasking.StrategyMultidep:
		// Four multidependences tasks per worker, at most one per element.
		nsub := max(min(4*s.Pool.MaxWorkers(), ne), 1)
		weights := make([]float64, ne)
		for e := 0; e < ne; e++ {
			weights[e] = fem.CostWeight(rm.Kinds[e])
		}
		labels, adj, err := partition.SubPartition(rm, weights, nsub)
		if err != nil {
			return nil, err
		}
		return tasking.NewMultidepPlan(labels, adj, tasking.KeyNeighbors), nil
	}
	return nil, fmt.Errorf("navierstokes: unsupported strategy %v", strategy)
}

// localConflicts builds a rank's element conflict graph: two elements
// conflict iff they share a local node (they may write the same matrix
// rows).
func localConflicts(rm *partition.RankMesh) *graph.CSR {
	inc := &graph.CSR{Ptr: rm.LocalPtr, Adj: rm.LocalConn}
	return graph.Shared(inc, graph.Transpose(inc, rm.NumLocalNodes()))
}

// --- distributed vector primitives ---

// nextTag returns a fresh message tag; every rank executes the same call
// sequence, so tags match across peers.
func (s *Solver) nextTag() int {
	s.tagSeq++
	return s.tagSeq
}

// haloSum adds, at every shared node, the partial contributions of all
// sharing ranks, leaving x consistent across ranks.
func (s *Solver) haloSum(x []float64) {
	if len(s.RM.Halos) == 0 {
		return
	}
	tag := s.nextTag()
	// Snapshot partials first: with >2 ranks sharing a node, everyone
	// must exchange original partials, not running sums. The snapshots
	// land directly in leased transport buffers that recycle through the
	// world freelist — the persistent-request analogue that makes the
	// steady-state exchange allocation-free.
	for _, h := range s.RM.Halos {
		buf := s.Comm.LeaseFloat64s(len(h.Nodes))
		for i, ln := range h.Nodes {
			buf.Data[i] = x[ln]
		}
		s.Comm.SendFloat64Buf(h.Peer, tag, buf)
	}
	for _, h := range s.RM.Halos {
		buf := s.Comm.RecvFloat64Buf(h.Peer, tag)
		for i, ln := range h.Nodes {
			x[ln] += buf.Data[i]
		}
		buf.Release()
	}
}

// ops builds the distributed Krylov operations for matrix a: row-blocked
// pool-parallel SpMV plus halo exchange, the owned-node mask the solvers
// reduce over (on the rank's pool, in the fixed-chunk order, so every
// iterate is bit-identical at any worker count), and the allreduces that
// sum the ranks' partials.
func (s *Solver) ops(a *la.CSRMatrix) la.Ops {
	return la.Ops{
		N: a.N,
		MatVec: func(x, y []float64) {
			s.par.MulVec(a, x, y)
			s.haloSum(y)
		},
		Owned:      s.RM.Owned,
		Allreduce:  func(v float64) float64 { return s.Comm.AllreduceFloat64(v, simmpi.OpSum) },
		Allreduce2: func(a, b float64) (float64, float64) { return s.Comm.AllreduceSum2(a, b) },
		Vec:        s.par,
	}
}

// advance records virtual time for a phase and aligns all ranks to the
// slowest one (the bulk-synchronous phase barrier).
func (s *Solver) advance(p trace.Phase, units float64) {
	if s.Tracer == nil {
		return
	}
	s.Tracer.Advance(p, units)
	maxClock := s.Comm.AllreduceFloat64(s.Tracer.Clock(), simmpi.OpMax)
	s.Tracer.AlignTo(maxClock)
}
