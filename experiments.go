package repro

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tasking"
	"repro/internal/trace"
	"repro/scenario"
)

// table1Result is the reproduction of the paper's Table 1 plus the trace
// behind it (which also renders Figure 2).
type table1Result struct {
	Rows  []metrics.PhaseRow
	Paper []metrics.PhaseRow
	Trace *trace.Trace
	Ranks int
}

// table1Options sizes the real run behind Table 1 / Figure 2.
type table1Options struct {
	Ranks     int // paper: 96 (one Thunder node)
	Steps     int
	Particles int
	MeshGen   int
}

// defaultTable1Options returns the default scaled-down configuration: the
// paper's 96 ranks on one node, a generation-4 airway, and enough
// particles to exhibit the injection pathology.
func defaultTable1Options() table1Options {
	return table1Options{Ranks: 96, Steps: 2, Particles: 20000, MeshGen: 4}
}

// table1Run runs the real synchronous simulation at the paper's rank
// count and measures per-phase load balance Ln (eq. 9) and time shares.
//
// The Ln column and the phase structure are measured from the real work
// distribution of this reproduction (partition cost imbalance, particle
// concentration at the inlet). The cost-model units come from
// CalibratePhaseUnits against the paper's Table-1 shares, so a pure-MPI
// step reproduces the paper's assembly/solver/SGS/particle magnitudes;
// Ln is independent of the units. See DESIGN.md (Experiments
// methodology). Callers go through table1Shared, which memoizes the
// probe + measured pair per option set for the table1 and fig2
// scenarios.
func table1Run(ctx context.Context, opts table1Options) (*table1Result, error) {
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = opts.MeshGen
	mc.NTheta = 10
	mc.NAxial = 6

	rc := coupling.DefaultRunConfig()
	rc.Mode = coupling.Synchronous
	rc.FluidRanks = opts.Ranks
	rc.ParticleRanks = 0
	rc.Steps = opts.Steps
	rc.NumParticles = opts.Particles
	rc.RanksPerNode = opts.Ranks            // one node, as in the paper's trace
	rc.NS.Strategy = tasking.StrategySerial // per-rank threading off: pure MPI
	rc.NS.SGSStrategy = tasking.StrategySerial
	rc.NS.TolMomentum = 1e-6
	rc.NS.TolPressure = 1e-6
	rc.WorkersPerRank = 1

	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		return nil, err
	}

	cal, err := CalibratePhaseUnits(ctx, m, rc, PaperTable1)
	if err != nil {
		return nil, err
	}
	cal.Apply(&rc)

	// Measured run.
	res, err := coupling.RunContext(ctx, m, rc)
	if err != nil {
		return nil, err
	}
	phaseTimes := res.Trace.PhaseTimes()
	perPhase := make([][]float64, len(phaseOrder))
	for i, p := range phaseOrder {
		perPhase[i] = phaseTimes[p]
	}
	rows := metrics.PhaseTable(PhaseNames, perPhase)
	// Express shares over the paper's accounted fraction (its remaining
	// ~14% is communication and unlabeled code).
	accounted := 0.0
	for _, r := range PaperTable1 {
		accounted += r.Percent
	}
	for i := range rows {
		rows[i].Percent *= accounted / 100
	}
	return &table1Result{Rows: rows, Paper: PaperTable1, Trace: res.Trace, Ranks: opts.Ranks}, nil
}

// --- modeled figures ---

// sharedWorkload builds the figure workload mesh once per process.
var sharedWorkload = sync.OnceValues(func() (*perfmodel.Workload, error) {
	return perfmodel.NewWorkload(perfmodel.DefaultWorkloadMesh())
})

// figure6 models the hybrid assembly speedups for one platform.
func figure6(p arch.Profile) (scenario.Figure, error) {
	return strategyFigure(p, "Figure 6", "speedup of hybrid matrix assembly wrt the MPI-only code",
		func(w *perfmodel.Workload) ([]perfmodel.StrategySeries, error) {
			return perfmodel.AssemblySpeedups(p, w, tasking.KeyNeighbors)
		})
}

// figure7 models the hybrid SGS speedups for one platform.
func figure7(p arch.Profile) (scenario.Figure, error) {
	f, err := strategyFigure(p, "Figure 7", "speedup of hybrid SGS wrt the MPI-only code",
		func(w *perfmodel.Workload) ([]perfmodel.StrategySeries, error) {
			return perfmodel.SGSSpeedups(p, w)
		})
	f.Notes = append(f.Notes, "the SGS phase updates no shared structure: the 'Atomics' version executes no atomic operations")
	return f, err
}

// strategyFigure draws one series per tasking strategy from a modeled
// speedup curve of the shared workload.
func strategyFigure(p arch.Profile, id, title string, model func(*perfmodel.Workload) ([]perfmodel.StrategySeries, error)) (scenario.Figure, error) {
	f := scenario.Figure{ID: id + " (" + p.Name + ")", Title: title, Unit: "x"}
	w, err := sharedWorkload()
	if err != nil {
		return f, err
	}
	series, err := model(w)
	if err != nil {
		return f, err
	}
	for _, s := range series {
		f.Series = append(f.Series, scenario.Series{Name: s.Strategy.String(), Labels: s.Labels, Values: s.Speedups})
	}
	return f, nil
}

// dlbFigure models one of Figures 8-11.
func dlbFigure(id string, p arch.Profile, particles float64) (scenario.Figure, error) {
	f := scenario.Figure{
		ID:    id,
		Title: fmt.Sprintf("simulation of %.0g particles on %s (time per step, work units)", particles, p.Name),
		Unit:  "wu",
	}
	w, err := sharedWorkload()
	if err != nil {
		return f, err
	}
	res, err := perfmodel.DLBScenario(p, w, particles)
	if err != nil {
		return f, err
	}
	orig := scenario.Series{Name: "Original"}
	withDLB := scenario.Series{Name: "DLB"}
	for _, r := range res {
		orig.Labels = append(orig.Labels, r.Label)
		orig.Values = append(orig.Values, r.Original)
		withDLB.Labels = append(withDLB.Labels, r.Label)
		withDLB.Values = append(withDLB.Values, r.DLB)
	}
	f.Series = []scenario.Series{orig, withDLB}
	return f, nil
}

// ipcReport reproduces the Section 4.3 IPC discussion for both platforms.
func ipcReport() string {
	var sb strings.Builder
	sb.WriteString("Assembly-phase IPC (Section 4.3): paper-measured values drive the model\n")
	for _, p := range arch.Platforms() {
		fmt.Fprintf(&sb, "  %s:\n", p.Name)
		for _, pt := range perfmodel.ModeledIPC(p) {
			fmt.Fprintf(&sb, "    %-10s %5.2f\n", pt.Strategy, pt.IPC)
		}
	}
	sb.WriteString("  paper: MN4 2.25 -> 1.15 under atomics (-49%); Thunder 0.49 -> 0.42 (-14%);\n")
	sb.WriteString("  multidep IPC is 94-96% of MPI-only on both machines.\n")
	return sb.String()
}

// keyingAblation compares the paper's neighbor-list mutexinoutset keying
// against exact edge keying on the assembly phase (a design choice
// DESIGN.md calls out: neighbor keys over-serialize distance-2 subdomain
// pairs).
func keyingAblation(p arch.Profile) (scenario.Figure, error) {
	f := scenario.Figure{
		ID:    "Ablation (" + p.Name + ")",
		Title: "multidependences keying: neighbor keys (paper) vs exact edge keys",
		Unit:  "x",
	}
	w, err := sharedWorkload()
	if err != nil {
		return f, err
	}
	for _, keying := range []tasking.MutexKeying{tasking.KeyNeighbors, tasking.KeyEdges} {
		series, err := perfmodel.AssemblySpeedups(p, w, keying)
		if err != nil {
			return f, err
		}
		name := "neighbor keys"
		if keying == tasking.KeyEdges {
			name = "edge keys"
		}
		for _, s := range series {
			if s.Strategy == tasking.StrategyMultidep {
				f.Series = append(f.Series, scenario.Series{Name: name, Labels: s.Labels, Values: s.Speedups})
			}
		}
	}
	return f, nil
}
