// Package repro is the public entry point of this reproduction of
// "Computational Fluid and Particle Dynamics Simulations for Respiratory
// System: Runtime Optimization on an Arm Cluster" (Garcia-Gasulla,
// Josep-Fabrego, Eguzkitza, Mantovani — ICPP 2018).
//
// The paper studies two system-software techniques on a production CFPD
// code (Alya) simulating particle transport in the human airways:
// multidependences (OpenMP 5.0 mutexinoutset tasks replacing atomics and
// coloring in the FEM assembly) and DLB (transparent dynamic load
// balancing by node-local core lending), evaluated on an Intel cluster
// (MareNostrum4) and an Arm cluster (Thunder, Cavium ThunderX).
//
// The reproduction has two layers:
//
//   - Real execution (RunSimulation): an actual distributed CFPD
//     simulation — hybrid airway mesh, FEM Navier-Stokes solver,
//     Lagrangian particle tracking — on simulated MPI ranks with the real
//     tasking strategies and the real DLB library, at laptop scale.
//
//   - Performance model (the table1, fig2, fig6..fig11, ipc and ablation
//     scenarios): the paper's evaluation regenerated at cluster scale by
//     combining real work distributions with architecture profiles
//     calibrated from the measurements the paper itself reports.
//
// Every experiment and example workload is reached through one surface:
// a named scenario in the repro/scenario registry (importing this
// package populates scenario.Default). Scenarios take functional-option
// parameters, honor context cancellation, and return typed artifacts
// that render uniformly to text, JSON and CSV. `respira fig` is a thin
// CLI over that registry; see README.md for the scenario API.
//
// DESIGN.md documents the two-layer architecture, the scenario API
// layer, the SoA particle engine, and the experiments methodology.
package repro

import (
	"context"
	"fmt"

	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// SimulationConfig configures a real (laptop-scale) CFPD run.
type SimulationConfig struct {
	// Mesh selects the airway geometry (default: DefaultAirwayConfig).
	Mesh mesh.AirwayConfig
	// Run selects mode, ranks, particles, strategies and DLB.
	Run coupling.RunConfig
}

// DefaultSimulationConfig returns a small synchronous respiratory run.
func DefaultSimulationConfig() SimulationConfig {
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	mc.NTheta = 8
	mc.NAxial = 4
	return SimulationConfig{Mesh: mc, Run: coupling.DefaultRunConfig()}
}

// SimulationResult is the outcome of a real run.
type SimulationResult struct {
	Mesh   mesh.Stats
	Result *coupling.RunResult
}

// RunSimulation generates the mesh and executes the configured run.
func RunSimulation(cfg SimulationConfig) (*SimulationResult, error) {
	return RunSimulationContext(context.Background(), cfg)
}

// RunSimulationContext is RunSimulation with cooperative cancellation: a
// ctx cancel stops the run at the next time-step boundary of the first
// rank to see it and returns an error wrapping ctx.Err().
func RunSimulationContext(ctx context.Context, cfg SimulationConfig) (*SimulationResult, error) {
	m, err := mesh.GenerateAirway(cfg.Mesh)
	if err != nil {
		return nil, fmt.Errorf("repro: mesh generation: %w", err)
	}
	res, err := coupling.RunContext(ctx, m, cfg.Run)
	if err != nil {
		return nil, fmt.Errorf("repro: run: %w", err)
	}
	return &SimulationResult{Mesh: m.Summary(), Result: res}, nil
}

// Summary renders the run outcome.
func (r *SimulationResult) Summary() string {
	out := fmt.Sprintf("mesh: %s\n", r.Mesh)
	out += fmt.Sprintf("injected=%d deposited=%d exited=%d active=%d\n",
		r.Result.Injected, r.Result.Deposited, r.Result.Exited, r.Result.ActiveEnd)
	out += fmt.Sprintf("wall=%v virtual makespan=%.4g\n", r.Result.Wall, r.Result.Makespan)
	if r.Result.DLB.Lends > 0 {
		out += fmt.Sprintf("dlb: lends=%d reclaims=%d\n", r.Result.DLB.Lends, r.Result.DLB.Reclaims)
	}
	out += r.Result.Trace.Summary()
	return out
}

// PhaseNames lists the Table-1 phases in paper order.
var PhaseNames = []string{"Matrix assembly", "Solver1", "Solver2", "SGS", "Particles"}

// phaseOrder maps PhaseNames to trace phases.
var phaseOrder = []trace.Phase{
	trace.PhaseAssembly, trace.PhaseSolver1, trace.PhaseSolver2,
	trace.PhaseSGS, trace.PhaseParticles,
}

// PaperTable1 holds the values the paper reports in Table 1.
var PaperTable1 = []metrics.PhaseRow{
	{Name: "Matrix assembly", Ln: 0.66, Percent: 40.84},
	{Name: "Solver1", Ln: 0.90, Percent: 16.13},
	{Name: "Solver2", Ln: 0.89, Percent: 4.20},
	{Name: "SGS", Ln: 0.61, Percent: 21.43},
	{Name: "Particles", Ln: 0.02, Percent: 3.37},
}
