package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/scenario"
)

// Sweep-family scenario names (tag "sweep"). These are the dosage-study
// workloads: instead of one configuration they run a grid of (particle
// diameter x inlet flow x mesh refinement) points and aggregate the
// per-point deposition efficiencies into one table — the kind of
// parameter study the paper's runtime optimizations exist to make cheap.
const (
	ScenarioSweep     = "sweep"
	ScenarioBreathing = "breathing"
)

// defaultSweepAxes is the default dosage grid: a fine (PM2.5-like) and a
// coarse (inhaler aerosol) species, a resting and a rapid inhalation
// flow, on the small two-generation airway. 2x2x1 = 4 points.
var defaultSweepAxes = scenario.SweepAxes{
	Diameters: []float64{2.5e-6, 10e-6},
	Flows:     []float64{0.9, 1.5},
	Gens:      []int{2},
}

// Per-point run shape of the sweep scenario (overridable via Params).
const (
	sweepPointRanks     = 2
	sweepPointSteps     = 2
	sweepPointParticles = 400
)

// sweepCost prices a sweep for the service's admission control: work is
// one full simulation per grid point, so cost scales with cardinality x
// ranks x steps rather than the flat single-run estimate.
func sweepCost(p scenario.Params) int64 {
	axes := p.SweepAxes(defaultSweepAxes)
	ranks := sweepPointRanks
	if p.Ranks > 0 {
		ranks = p.Ranks
	}
	steps := sweepPointSteps
	if p.Steps > 0 {
		steps = p.Steps
	}
	return int64(axes.Cardinality()) * int64(ranks) * int64(steps)
}

func registerSweepScenarios() {
	reg := scenario.MustRegister

	reg(scenario.NewCosted(ScenarioSweep,
		"Dosage sweep: one full simulation per (diameter x inlet flow x mesh) grid point, deposition efficiency per point",
		[]string{"sweep", "measured", "table"},
		runSweep, sweepCost))
	reg(scenario.New(ScenarioBreathing,
		"Breathing cycle: sinusoidal inlet waveform with particles re-released every step at the waveform-scaled velocity",
		[]string{"sweep", "measured", "report"},
		runBreathing))
}

// runSweep executes the dosage grid: one independent simulation per
// point, in grid order, each on a mesh of its own.
func runSweep(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
	axes := p.SweepAxes(defaultSweepAxes)
	points := axes.Grid()
	if len(points) == 0 {
		return nil, fmt.Errorf("repro: sweep grid is empty")
	}

	rows := make([]scenario.TableRow, 0, len(points))
	for _, pt := range points {
		row, err := runSweepPoint(ctx, p, pt)
		if err != nil {
			return nil, fmt.Errorf("%s[%s]: %w", ScenarioSweep, pt.Label(), err)
		}
		rows = append(rows, row)
	}

	tab := scenario.Table{
		Title:    fmt.Sprintf("dosage sweep — deposition efficiency over %d grid points", len(points)),
		LabelCol: scenario.Column{Name: "point", HeaderFmt: "%-24s", CellFmt: "%-24s"},
		Columns: []scenario.Column{
			{Name: "d_um", HeaderFmt: "%8s", CellFmt: "%8.3g"},
			{Name: "flow", HeaderFmt: "%8s", CellFmt: "%8.3g"},
			{Name: "gens", HeaderFmt: "%6s", CellFmt: "%6.0f"},
			{Name: "injected", HeaderFmt: "%10s", CellFmt: "%10.0f"},
			{Name: "deposited", HeaderFmt: "%11s", CellFmt: "%11.0f"},
			{Name: "exited", HeaderFmt: "%8s", CellFmt: "%8.0f"},
			{Name: "airborne", HeaderFmt: "%10s", CellFmt: "%10.0f"},
			{Name: "dep_eff", HeaderFmt: "%9s", CellFmt: "%9.4f"},
		},
		Rows: rows,
	}
	return &scenario.Artifact{
		Scenario: ScenarioSweep, Kind: scenario.KindTable,
		Title:  tab.Title,
		Tables: []scenario.Table{tab},
		Notes: []string{
			"one full simulation per row, each on its own mesh and partition",
		},
	}, nil
}

// runSweepPoint runs one grid point and returns its table row.
func runSweepPoint(ctx context.Context, p scenario.Params, pt scenario.SweepPoint) (scenario.TableRow, error) {
	mc := DefaultSimulationConfig().Mesh
	mc.Generations = pt.MeshGens
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		return scenario.TableRow{}, err
	}
	rc := coupling.DefaultRunConfig()
	rc.FluidRanks = sweepPointRanks
	rc.Steps = sweepPointSteps
	rc.NumParticles = sweepPointParticles
	rc.Species.Diameter = pt.Diameter
	rc.NS.InletVelocity = mesh.Vec3{Z: -pt.Flow}
	p.ApplyRun(&rc)
	res, err := coupling.RunContext(ctx, m, rc)
	if err != nil {
		return scenario.TableRow{}, err
	}
	eff := 0.0
	if res.Injected > 0 {
		eff = float64(res.Deposited) / float64(res.Injected)
	}
	return scenario.TableRow{
		Label: pt.Label(),
		Values: []float64{
			pt.Diameter * 1e6, pt.Flow, float64(pt.MeshGens),
			float64(res.Injected), float64(res.Deposited),
			float64(res.Exited), float64(res.ActiveEnd), eff,
		},
	}, nil
}

// runBreathing is the breathing-cycle workload: a sinusoidal inlet
// waveform (the run spans the inhalation half of the cycle) with a fresh
// particle release every step, each launched at that step's
// waveform-scaled inlet velocity. Deterministic across worker counts.
func runBreathing(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
	cfg := DefaultSimulationConfig()
	cfg.Run.FluidRanks = 4
	cfg.Run.Steps = 4
	cfg.Run.NumParticles = 800
	cfg.Run.InjectEvery = 1
	p.ApplyMesh(&cfg.Mesh)
	p.ApplyRun(&cfg.Run)
	if cfg.Run.NS.Inflow == nil {
		// Default cycle: the configured run covers the inhalation half
		// (flow ramps up to the peak and back to zero).
		cfg.Run.NS.Inflow = navierstokes.BreathingWaveform{
			Period: 2 * float64(cfg.Run.Steps) * cfg.Run.NS.Props.Dt,
		}
	}

	res, err := RunSimulationContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	r := res.Result
	var sb strings.Builder
	sb.WriteString("breathing-cycle inflow — continuous dosing\n")
	fmt.Fprintf(&sb, "mesh: %s\n", res.Mesh)
	fmt.Fprintf(&sb, "waveform: %s, peak inlet speed %g m/s\n\n",
		cfg.Run.NS.Inflow, -cfg.Run.NS.InletVelocity.Z)
	fmt.Fprintf(&sb, "released over %d steps:  %6d particles\n", cfg.Run.Steps, r.Injected)
	fmt.Fprintf(&sb, "deposited on walls:     %6d\n", r.Deposited)
	fmt.Fprintf(&sb, "reached the deep lung:  %6d\n", r.Exited)
	fmt.Fprintf(&sb, "still airborne:         %6d\n\n", r.ActiveEnd)
	fmt.Fprintf(&sb, "virtual makespan: %.6g\n", r.Makespan)
	return &scenario.Artifact{
		Scenario: ScenarioBreathing, Kind: scenario.KindReport,
		Title:  "breathing-cycle inflow — continuous dosing",
		Report: sb.String(),
		Notes: []string{
			"each step's release is seeded seed+step and launched at the waveform-scaled inlet velocity of that simulation time",
		},
	}, nil
}
