package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/coupling"
	"repro/internal/memo"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/navierstokes"
	"repro/internal/trace"
)

// Calibration holds cost-model units derived so that a run's per-phase
// maxima reproduce a reference set of time shares (the paper's Table 1
// by default). The absolute per-phase kernel speeds of the paper's
// machines are not observable in this reproduction, so every scenario
// that wants paper-magnitude phase times calibrates first; the load
// balance Ln is independent of the units.
type Calibration struct {
	Cost         navierstokes.CostModel
	ParticleUnit float64
}

// Apply overlays the calibrated units onto a run configuration.
func (c Calibration) Apply(rc *coupling.RunConfig) {
	rc.Cost = c.Cost
	rc.ParticleUnit = c.ParticleUnit
}

// CalibratePhaseUnits executes a probe of rc on m under unit costs and
// returns the per-phase units that make the probe's per-phase maxima
// match the reference shares (ref rows in PhaseNames order; matrix
// assembly is the unit-cost reference phase). The probe uses the same
// step count as the final run because solver iteration counts evolve as
// the flow develops.
func CalibratePhaseUnits(ctx context.Context, m *mesh.Mesh, rc coupling.RunConfig, ref []metrics.PhaseRow) (Calibration, error) {
	if len(ref) != len(phaseOrder) {
		return Calibration{}, fmt.Errorf("repro: calibration needs %d reference rows, got %d", len(phaseOrder), len(ref))
	}
	for i, r := range ref {
		if !(r.Percent > 0) { // also rejects NaN
			return Calibration{}, fmt.Errorf("repro: calibration reference row %d (%s) needs a positive time share, got %g",
				i, r.Name, r.Percent)
		}
	}
	probe := rc
	probe.Cost = navierstokes.CostModel{AssemblyUnit: 1, SolverUnit: 1, SGSUnit: 1}
	probe.ParticleUnit = 1
	pres, err := coupling.RunContext(ctx, m, probe)
	if err != nil {
		return Calibration{}, err
	}
	rawMax := func(p trace.Phase) float64 {
		max := 0.0
		for _, v := range pres.Trace.PhaseTimes()[p] {
			if v > max {
				max = v
			}
		}
		return max
	}
	maxA := rawMax(trace.PhaseAssembly)
	unit := func(share float64, raw float64) float64 {
		if raw == 0 {
			return 1
		}
		return share / ref[0].Percent * maxA / raw
	}
	// Assembly is the reference; each remaining phase gets its own
	// per-unit cost.
	return Calibration{
		Cost: navierstokes.CostModel{
			AssemblyUnit: 1,
			SolverUnit:   unit(ref[1].Percent, rawMax(trace.PhaseSolver1)),
			Solver2Unit:  unit(ref[2].Percent, rawMax(trace.PhaseSolver2)),
			SGSUnit:      unit(ref[3].Percent, rawMax(trace.PhaseSGS)),
		},
		ParticleUnit: unit(ref[4].Percent, rawMax(trace.PhaseParticles)),
	}, nil
}

// table1TTL bounds how long a memoized Table-1 run is served. Within one
// `respira fig` invocation (tens of seconds) every scenario sharing an option
// set hits the cache exactly as before; in a long-running daemon the
// entries age out instead of accumulating forever.
const table1TTL = 15 * time.Minute

// table1Memo deduplicates concurrent and repeated Table-1 runs: the
// Table 1 scenario and its Figure 2 trace rendering share one calibrated
// probe + measured coupling.RunContext pair per option set. Failed (e.g.
// cancelled) computations are evicted, waiters with a live context retry
// after a failed leader, and entries expire after table1TTL — the
// single-flight contract lives in internal/memo.
var table1Memo = memo.New[table1Options, *table1Result](table1TTL)

// table1Shared returns the memoized Table-1 run for opts.
func table1Shared(ctx context.Context, opts table1Options) (*table1Result, error) {
	return table1Memo.Do(ctx, opts, func(ctx context.Context) (*table1Result, error) {
		return table1Run(ctx, opts)
	})
}
