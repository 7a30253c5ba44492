package navierstokes

import (
	"fmt"

	"repro/internal/fem"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

// assembleStatic fills the element geometry records and, in the same
// element pass while each element's records are in cache, builds from
// them the constant pressure matrix — with symmetric zero-Dirichlet
// treatment at the outlet nodes — and the halo-summed lumped mass the
// velocity correction divides by (serial; runs once, and its haloSum is
// part of NewSolver's collective construction contract).
func (s *Solver) assembleStatic() {
	s.geom = fem.NewGeometry(s.RM.Kinds)
	s.lumped = make([]float64, s.RM.NumLocalNodes())
	s.L.Zero()
	scr := s.scratch.Get().(*fem.Scratch)
	defer s.scratch.Put(scr)
	for e := 0; e < s.RM.NumElems(); e++ {
		kind := s.RM.Kinds[e]
		nen := kind.NodesPerElem()
		nodes := s.RM.ElemNodesLocal(e)
		for i, ln := range nodes {
			scr.Coords[i] = s.M.Coords[s.RM.GlobalNode[ln]]
		}
		g := s.geom.Elem(e)
		fem.FillGeom(kind, scr.Coords[:nen], g)
		fem.LaplacianGeom(kind, nen, g, scr)
		for a := 0; a < nen; a++ {
			for b := 0; b < nen; b++ {
				s.L.Add(nodes[a], nodes[b], scr.Ke[a*nen+b])
			}
		}
		fem.LumpedGeom(kind, nen, g, scr)
		for a, ln := range nodes {
			s.lumped[ln] += scr.Fe[a]
		}
	}
	s.haloSum(s.lumped)
	// Symmetric zero-Dirichlet: zero rows and columns of outlet nodes,
	// then set each diagonal to this rank's share invMult = 1/m, so the
	// halo sum over the m sharing ranks restores a unit diagonal.
	for _, ln := range s.outletLoc {
		s.L.SetDirichletRow(ln)
	}
	for i := 0; i < s.L.N; i++ {
		for k := s.L.Ptr[i]; k < s.L.Ptr[i+1]; k++ {
			j := s.L.Col[k]
			if s.isDirP[j] && j != int32(i) {
				s.L.Val[k] = 0
			}
		}
	}
	for _, ln := range s.outletLoc {
		if k := s.L.Find(ln, ln); k >= 0 {
			s.L.Val[k] = s.invMult[ln]
		}
	}
}

// buildStepClosures constructs, once per solver, the kernels, scatters
// and loop bodies the step loop submits every time step — remaking
// these closures per call would heap-allocate on the hot path.
func (s *Solver) buildStepClosures() {
	n := s.RM.NumLocalNodes()
	s.asmKernel = func(e int, sc *tasking.Scatter) {
		scr := s.scratch.Get().(*fem.Scratch)
		kind := s.RM.Kinds[e]
		nen := kind.NodesPerElem()
		nodes := s.RM.ElemNodesLocal(e)
		for i, ln := range nodes {
			uc := mesh.Vec3{X: s.Uold[0][ln], Y: s.Uold[1][ln], Z: s.Uold[2][ln]}
			scr.UOld3[i] = uc
			// VMS convection: resolved velocity + element subgrid part.
			scr.UConv[i] = uc.Add(s.SGS[e])
		}
		fem.MomentumGeom(kind, nen, s.geom.Elem(e), s.Cfg.Props, scr)
		for a := 0; a < nen; a++ {
			ra := nodes[a]
			for b := 0; b < nen; b++ {
				sc.AddMat(ra, nodes[b], scr.Ke[a*nen+b])
			}
			sc.AddVec(ra, scr.Fe3[0][a])
			sc.AddVec(int32(n)+ra, scr.Fe3[1][a])
			sc.AddVec(2*int32(n)+ra, scr.Fe3[2][a])
		}
		s.scratch.Put(scr)
	}
	s.asmPlain = &tasking.Scatter{
		AddMat: func(i, j int32, v float64) { s.A.Add(i, j, v) },
		AddVec: func(i int32, v float64) {
			c := int(i) / n
			s.rhs[c][int(i)%n] += v
		},
	}
	s.asmAtomic = &tasking.Scatter{
		AddMat: func(i, j int32, v float64) {
			k := s.A.Find(i, j)
			s.atomicMat.Add(k, v)
		},
		AddVec: func(i int32, v float64) { s.atomicVec.Add(int(i), v) },
	}
	s.sgsBody = func(lo, hi int) {
		scr := s.scratch.Get().(*fem.Scratch)
		for e := lo; e < hi; e++ {
			kind := s.RM.Kinds[e]
			nen := kind.NodesPerElem()
			nodes := s.RM.ElemNodesLocal(e)
			for i, ln := range nodes {
				scr.UConv[i] = mesh.Vec3{X: s.U[0][ln], Y: s.U[1][ln], Z: s.U[2][ln]}
			}
			s.SGS[e] = fem.SGSGeom(kind, nen, s.geom.Elem(e), s.Cfg.Props, scr)
		}
		s.scratch.Put(scr)
	}
	s.prhsBody = func(lo, hi int) {
		scr := s.scratch.Get().(*fem.Scratch)
		for e := lo; e < hi; e++ {
			kind := s.RM.Kinds[e]
			nen := kind.NodesPerElem()
			nodes := s.RM.ElemNodesLocal(e)
			for i, ln := range nodes {
				scr.UConv[i] = mesh.Vec3{X: s.U[0][ln], Y: s.U[1][ln], Z: s.U[2][ln]}
			}
			fem.DivergenceGeom(kind, nen, s.geom.Elem(e), s.Cfg.Props, scr)
			copy(s.elemFe[s.RM.LocalPtr[e]:], scr.Fe[:nen])
		}
		s.scratch.Put(scr)
	}
	s.corrBody = func(lo, hi int) {
		scr := s.scratch.Get().(*fem.Scratch)
		for e := lo; e < hi; e++ {
			kind := s.RM.Kinds[e]
			nen := kind.NodesPerElem()
			nodes := s.RM.ElemNodesLocal(e)
			for i, ln := range nodes {
				scr.P[i] = s.P[ln]
			}
			fem.GradientGeom(kind, nen, s.geom.Elem(e), scr)
			slot := s.elemCorr[3*s.RM.LocalPtr[e]:]
			for a := 0; a < nen; a++ {
				for c := 0; c < 3; c++ {
					slot[a*3+c] = scr.Fe3[c][a]
				}
			}
		}
		s.scratch.Put(scr)
	}
	s.corrFinalBody = func(lo, hi int) {
		dtRho := s.Cfg.Props.Dt / s.Cfg.Props.Rho
		for i := lo; i < hi; i++ {
			if s.dirichlet[i] || s.lumped[i] == 0 {
				continue
			}
			inv := 1 / s.lumped[i]
			for c := 0; c < 3; c++ {
				s.U[c][i] -= dtRho * s.gradScr[c][i] * inv
			}
		}
	}
}

// assembleMomentum rebuilds the momentum matrix and the three RHS vectors
// with the configured strategy, then applies halo sums and boundary
// conditions. The inlet Dirichlet value is re-evaluated from the inflow
// waveform at time t every call — the time-dependent BC rides the
// existing per-step row rewrite, so neither the constant-L
// preconditioner nor the compiled assembly plans are touched.
func (s *Solver) assembleMomentum(t float64) error {
	n := s.RM.NumLocalNodes()
	s.A.Zero()
	for c := 0; c < 3; c++ {
		la.Fill(s.rhs[c], 0)
	}

	var atomicS *tasking.Scatter
	if s.plan.Strategy == tasking.StrategyAtomic {
		s.atomicMat.Zero()
		s.atomicVec.Zero()
		atomicS = s.asmAtomic
	}
	if err := tasking.Assemble(s.Pool, s.plan, s.asmKernel, s.asmPlain, atomicS); err != nil {
		return err
	}
	if s.plan.Strategy == tasking.StrategyAtomic {
		s.atomicMat.CopyTo(s.A.Val)
		for c := 0; c < 3; c++ {
			for i := 0; i < n; i++ {
				s.rhs[c][i] = s.atomicVec.Load(c*n + i)
			}
		}
	}

	// Consistent RHS across ranks, then Dirichlet velocity rows.
	for c := 0; c < 3; c++ {
		s.haloSum(s.rhs[c])
	}
	inletVel := s.Cfg.InletVelocityAt(t)
	inlet := [3]float64{inletVel.X, inletVel.Y, inletVel.Z}
	applyRow := func(ln int32, val [3]float64) {
		s.A.SetDirichletRow(ln)
		// Diagonal gets the rank share invMult = 1/m: the halo sum adds
		// the m sharing ranks' shares back to exactly 1.
		if k := s.A.Find(ln, ln); k >= 0 {
			s.A.Val[k] = s.invMult[ln]
		}
		for c := 0; c < 3; c++ {
			s.rhs[c][ln] = val[c]
			s.U[c][ln] = val[c]
		}
	}
	for _, ln := range s.wallLoc {
		applyRow(ln, [3]float64{})
	}
	for _, ln := range s.inletLoc {
		applyRow(ln, inlet)
	}
	return nil
}

// tally counts one accepted solve into the step's stats and the rank's
// counters; err is nil or la.ErrBreakdown.
func (s *Solver) tally(stats *StepStats, st la.SolveStats, err error) {
	s.counts.Solves++
	s.counts.Iterations += st.Iterations
	if err == la.ErrBreakdown {
		s.counts.Breakdowns++
		stats.Breakdowns++
	}
}

// SimTime reports the simulation time the solver has advanced to:
// completed steps times Dt.
func (s *Solver) SimTime() float64 {
	return float64(s.stepIndex) * s.Cfg.Props.Dt
}

// Step advances the flow one time step through the four profiled phases.
func (s *Solver) Step() (StepStats, error) {
	var stats StepStats
	for c := 0; c < 3; c++ {
		copy(s.Uold[c], s.U[c])
	}

	// The step advances the flow to tNew; the inlet waveform (an
	// implicit BC) is evaluated there.
	tNew := float64(s.stepIndex+1) * s.Cfg.Props.Dt

	// --- Phase: matrix assembly ---
	if err := s.assembleMomentum(tNew); err != nil {
		return stats, err
	}
	s.advance(trace.PhaseAssembly, s.numWeight*s.Cost.AssemblyUnit)

	// --- Phase: Solver1 (momentum, one BiCGSTAB per component) ---
	// The diagonal scratch, Jacobi inverse, distributed ops and Krylov
	// workspace are all persistent; the momentum preconditioner is
	// refreshed in place (A changes every step).
	s.A.Diagonal(s.diag)
	s.haloSum(s.diag)
	la.JacobiInvInto(s.diag, s.momInv)
	totalIters := 0
	stats.MomentumConverged = true
	for c := 0; c < 3; c++ {
		st, err := la.BiCGSTABWithWorkspace(s.opsA, s.momPrecond, s.rhs[c], s.U[c], s.Cfg.TolMomentum, s.Cfg.MaxIterMomentum, s.ws)
		if herr := s.checkHealth("momentum", err, st.Residual); herr != nil {
			return stats, herr
		}
		if err != nil && err != la.ErrBreakdown {
			return stats, fmt.Errorf("navierstokes: momentum solve: %w", err)
		}
		s.tally(&stats, st, err)
		totalIters += st.Iterations
		if st.Residual > stats.MomentumRes {
			stats.MomentumRes = st.Residual
		}
		stats.MomentumConverged = stats.MomentumConverged && st.Converged
	}
	stats.MomentumIters = totalIters
	s.advance(trace.PhaseSolver1, float64(totalIters)*s.ownedNNZ*s.Cost.SolverUnit)

	// --- Phase: Solver2 (continuity / pressure Poisson) ---
	// L is constant, so its preconditioner was built once in NewSolver.
	s.assemblePressureRHS()
	pst, err := la.PCGWithWorkspace(s.opsL, s.lPrecond, s.prhs, s.P, s.Cfg.TolPressure, s.Cfg.MaxIterPressure, s.ws)
	if herr := s.checkHealth("pressure", err, pst.Residual); herr != nil {
		return stats, herr
	}
	if err != nil && err != la.ErrBreakdown {
		return stats, fmt.Errorf("navierstokes: pressure solve: %w", err)
	}
	s.tally(&stats, pst, err)
	if !pst.Converged && pst.Iterations == s.Cfg.MaxIterPressure {
		s.counts.PressureCapped++
	}
	stats.PressureIters = pst.Iterations
	stats.PressureRes = pst.Residual
	stats.PressureConverged = pst.Converged
	s.advance(trace.PhaseSolver2, float64(pst.Iterations)*s.ownedNNZ*s.Cost.solver2Unit())

	// Velocity correction (projection), accounted as "other".
	s.correctVelocity()
	s.advance(trace.PhaseOther, 0.05*s.numWeight*s.Cost.AssemblyUnit)

	// --- Phase: SGS (subgrid-scale vector) ---
	s.updateSGS()
	s.advance(trace.PhaseSGS, s.numWeight*s.Cost.SGSUnit)

	s.stepIndex++
	return stats, nil
}

// AssembleMomentumForBenchmark exposes the assembly phase alone so that
// host-native benchmarks can race the strategies on real hardware. The
// inlet is evaluated at the next step's time, as Step would.
func (s *Solver) AssembleMomentumForBenchmark() error {
	return s.assembleMomentum(float64(s.stepIndex+1) * s.Cfg.Props.Dt)
}

// assemblePressureRHS computes -(rho/dt) * div(u*) weakly. Its cost is
// accounted inside Solver2 as in the paper's phase split. The expensive
// per-element quadrature fans out over the rank's pool into disjoint
// per-element slots; the cheap scatter then walks elements serially in
// index order, so the result is bit-identical to the original serial
// loop at any worker count.
func (s *Solver) assemblePressureRHS() {
	la.Fill(s.prhs, 0)
	s.par.Range(s.RM.NumElems(), s.prhsBody)
	for e := 0; e < s.RM.NumElems(); e++ {
		fe := s.elemFe[s.RM.LocalPtr[e]:]
		for a, ln := range s.RM.ElemNodesLocal(e) {
			s.prhs[ln] += fe[a]
		}
	}
	s.haloSum(s.prhs)
	for _, ln := range s.outletLoc {
		s.prhs[ln] = 0
	}
}

// correctVelocity projects the velocity with the nodal pressure gradient:
// u <- u - (dt/rho) grad p, using a lumped-volume nodal gradient (the
// lumped mass is static, built in NewSolver). Like assemblePressureRHS
// it is compute-parallel/scatter-serial: quadrature accumulates into
// disjoint per-(element,node) slots on the pool, the in-order serial
// scatter reproduces the serial bits, and the final per-node correction
// is element-wise parallel (disjoint writes).
func (s *Solver) correctVelocity() {
	n := s.RM.NumLocalNodes()
	for c := 0; c < 3; c++ {
		la.Fill(s.gradScr[c], 0)
	}
	s.par.Range(s.RM.NumElems(), s.corrBody)
	for e := 0; e < s.RM.NumElems(); e++ {
		slot := s.elemCorr[3*s.RM.LocalPtr[e]:]
		for a, ln := range s.RM.ElemNodesLocal(e) {
			for c := 0; c < 3; c++ {
				s.gradScr[c][ln] += slot[a*3+c]
			}
		}
	}
	for c := 0; c < 3; c++ {
		s.haloSum(s.gradScr[c])
	}
	s.par.Range(n, s.corrFinalBody)
}

// updateSGS recomputes the per-element subgrid-scale velocity,
// owner-computes: each element writes only its own slot (why the paper's
// "atomics" SGS runs no atomic), so the bits do not depend on the worker
// count. It runs on the pool, not s.par.Range, which stays inline below
// 4096 elements: on every benchmark rank mesh.
func (s *Solver) updateSGS() {
	s.Pool.ParallelFor(s.RM.NumElems(), 0, s.sgsBody)
}

// VelocityAt returns the nodal velocity of a global node id owned or
// shared by this rank (zero vector otherwise); this is the field the
// particle tracker samples.
func (s *Solver) VelocityAt(global int32) mesh.Vec3 {
	ln := s.RM.LocalNode[global]
	if ln < 0 {
		return mesh.Vec3{}
	}
	return mesh.Vec3{X: s.U[0][ln], Y: s.U[1][ln], Z: s.U[2][ln]}
}

// MaxVelocity reports the global maximum velocity magnitude (diagnostic).
func (s *Solver) MaxVelocity() float64 {
	local := 0.0
	for i := range s.U[0] {
		v := mesh.Vec3{X: s.U[0][i], Y: s.U[1][i], Z: s.U[2][i]}.Norm()
		if v > local {
			local = v
		}
	}
	return s.Comm.AllreduceFloat64(local, simmpi.OpMax)
}
