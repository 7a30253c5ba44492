package repro

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/navierstokes"
	"repro/internal/particles"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
	"repro/scenario"
)

// Example workload scenario names (tag "example"). The examples/ mains
// are thin wrappers over these registrations, so the runnable examples
// cannot drift from the library.
const (
	ScenarioQuickstart  = "quickstart"
	ScenarioRespiratory = "respiratory"
	ScenarioPollutant   = "pollutant"
	ScenarioCoupledDLB  = "coupled_dlb"
)

func registerExampleScenarios() {
	reg := scenario.MustRegister

	reg(scenario.New(ScenarioQuickstart,
		"Minimal end-to-end run: generate an airway mesh, simulate fluid + particles on simulated MPI ranks, print the outcome",
		[]string{"example", "measured", "report"},
		runQuickstart))
	reg(scenario.New(ScenarioRespiratory,
		"Aerosolized drug delivery: a 10-micron bolus under rapid inhalation, reporting deposition fractions and phase imbalance",
		[]string{"example", "measured", "report"},
		runRespiratory))
	reg(scenario.New(ScenarioPollutant,
		"Pollutant inhalation: continuous PM2.5 injection every step, tracking how particle load and imbalance build up",
		[]string{"example", "measured", "table"},
		runPollutant))
	reg(scenario.New(ScenarioCoupledDLB,
		"Execution mode and DLB mechanics on the host: synchronous vs coupled f+p splits with real core lending, wall clock",
		[]string{"example", "measured", "dlb", "report"},
		runCoupledDLB))
}

// runQuickstart is the minimal public-API workload behind
// examples/quickstart.
func runQuickstart(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
	cfg := DefaultSimulationConfig()
	cfg.Run.FluidRanks = 4
	cfg.Run.Steps = 3
	cfg.Run.NumParticles = 1000
	p.ApplyMesh(&cfg.Mesh)
	p.ApplyRun(&cfg.Run)

	res, err := RunSimulationContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	width, rows := timeline(p, 90, 8)
	var sb strings.Builder
	sb.WriteString("respiratory CFPD quickstart\n")
	sb.WriteString(res.Summary())
	sb.WriteString("\nphase timeline:\n")
	sb.WriteString(res.Result.Trace.Render(width, rows))
	return &scenario.Artifact{
		Scenario: ScenarioQuickstart, Kind: scenario.KindReport,
		Title:  "respiratory CFPD quickstart",
		Report: sb.String(),
	}, nil
}

// runRespiratory is the paper's headline drug-delivery use case at
// laptop scale, behind examples/respiratory.
func runRespiratory(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
	cfg := DefaultSimulationConfig()
	cfg.Mesh.Generations = 3 // deeper bronchial tree
	cfg.Run.Mode = coupling.Synchronous
	cfg.Run.FluidRanks = 16
	cfg.Run.RanksPerNode = 16
	cfg.Run.Steps = 4
	cfg.Run.NumParticles = 5000
	cfg.Run.NS.Strategy = tasking.StrategyMultidep // the paper's best assembly strategy
	cfg.Run.Species.Diameter = 10e-6               // 10 um inhaler aerosol
	cfg.Run.Species.Density = 1000
	p.ApplyMesh(&cfg.Mesh)
	p.ApplyRun(&cfg.Run)

	res, err := RunSimulationContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	r := res.Result
	pt := r.Trace.PhaseTimes()
	var sb strings.Builder
	sb.WriteString("aerosolized drug delivery — rapid inhalation\n")
	fmt.Fprintf(&sb, "mesh: %s\n\n", res.Mesh)
	fmt.Fprintf(&sb, "injected through the face:   %6d particles\n", r.Injected)
	fmt.Fprintf(&sb, "deposited on airway walls:   %6d (lost fraction, extrathoracic+bronchial)\n", r.Deposited)
	fmt.Fprintf(&sb, "reached the deep lung:       %6d (therapeutic fraction)\n", r.Exited)
	fmt.Fprintf(&sb, "still airborne after %d steps: %4d\n\n", cfg.Run.Steps, r.ActiveEnd)
	// The load-balance pathology the paper measures (Table 1): right
	// after injection, particle work sits on the inlet-owning ranks.
	fmt.Fprintf(&sb, "particle-phase load balance Ln = %.3f (1.0 = balanced; the paper measures 0.02 at 96 ranks)\n",
		metrics.LoadBalance(pt[trace.PhaseParticles]))
	fmt.Fprintf(&sb, "assembly-phase load balance Ln = %.3f\n",
		metrics.LoadBalance(pt[trace.PhaseAssembly]))
	return &scenario.Artifact{
		Scenario: ScenarioRespiratory, Kind: scenario.KindReport,
		Title:  "aerosolized drug delivery — rapid inhalation",
		Report: sb.String(),
	}, nil
}

// runPollutant drives the lower-level packages directly — distributed
// solver, tracker, migration — to inject particles EVERY step ("inject
// particles several times during the simulation", Section 2.2) and
// reports how the particle load and its imbalance build up over time.
// Behind examples/pollutant.
func runPollutant(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
	ranks := 8
	steps := 6
	perStepShots := 400 // particles inhaled every step
	workers := 2
	seedBase := int64(1)
	if p.Ranks > 0 {
		ranks = p.Ranks
	}
	if p.Steps > 0 {
		steps = p.Steps
	}
	if p.Particles > 0 {
		perStepShots = p.Particles
	}
	if p.Workers > 0 {
		workers = p.Workers
	}
	if p.Seed != 0 {
		seedBase = p.Seed
	}
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	p.ApplyMesh(&mc)
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		return nil, err
	}
	dual := m.DualByNode()
	part, err := partition.KWay(dual, nil, ranks)
	if err != nil {
		return nil, err
	}
	rms, err := partition.BuildRankMeshes(m, part.Parts, ranks)
	if err != nil {
		return nil, err
	}
	world, err := simmpi.NewWorld(ranks, simmpi.WithRanksPerNode(ranks))
	if err != nil {
		return nil, err
	}
	tr := trace.NewTrace(ranks)
	perStepLn := make([]float64, steps)
	perStepCount := make([]int, steps)
	ranSteps := 0

	soot := particles.Props{Diameter: 2.5e-6, Density: 1800} // PM2.5-like
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(workers)
		defer pool.Close()
		cfg := navierstokes.DefaultConfig()
		cfg.Strategy = tasking.StrategyMultidep
		if p.Strategy != nil {
			cfg.Strategy = *p.Strategy
		}
		ns, err := navierstokes.NewSolver(m, rms[r.ID()], r.Comm, pool, cfg,
			navierstokes.DefaultCostModel(), tr.Ranks[r.ID()])
		if err != nil {
			panic(err)
		}
		tk := particles.NewTracker(m, rms[r.ID()].Elems, soot, particles.AirAt20C())
		var peers []int
		for _, h := range rms[r.ID()].Halos {
			peers = append(peers, h.Peer)
		}
		for step := 0; step < steps; step++ {
			// Same between-steps cancellation contract as coupling.Run:
			// every rank agrees through a collective before breaking.
			flag := 0
			if ctx.Err() != nil {
				flag = 1
			}
			if r.Comm.AllreduceInt(flag, simmpi.OpMax) > 0 {
				break
			}
			if _, err := ns.Step(); err != nil {
				panic(err)
			}
			// Continuous pollutant exposure: inject EVERY step.
			tk.InjectAtInlet(perStepShots, seedBase+int64(step), cfg.InletVelocity)
			w0 := tk.WorkUnits
			tk.Step(cfg.Props.Dt, ns.VelocityAt)
			particles.Migrate(r.Comm, tk, peers, 1<<30)
			stepWork := float64(tk.WorkUnits - w0)
			// Gather per-rank particle work to measure imbalance.
			works := r.Comm.AllgatherFloat64(stepWork)
			if r.ID() == 0 {
				perStepLn[step] = metrics.LoadBalance(works)
				total := 0
				for _, w := range works {
					total += int(w)
				}
				perStepCount[step] = total
				ranSteps = step + 1
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); ranSteps < steps && err != nil {
		return nil, err
	}

	tab := scenario.Table{
		Title:    "pollutant inhalation — continuous PM2.5 injection",
		LabelCol: scenario.Column{Name: "step", HeaderFmt: "%6s", CellFmt: "%6s"},
		Columns: []scenario.Column{
			{Name: "tracked/step", HeaderFmt: "%16s", CellFmt: "%16.0f"},
			{Name: "particle-phase Ln", HeaderFmt: "%22s", CellFmt: "%22.3f"},
		},
	}
	for s := 0; s < steps; s++ {
		tab.Rows = append(tab.Rows, scenario.TableRow{
			Label:  strconv.Itoa(s),
			Values: []float64{float64(perStepCount[s]), perStepLn[s]},
		})
	}
	return &scenario.Artifact{
		Scenario: ScenarioPollutant, Kind: scenario.KindTable,
		Title:  tab.Title,
		Tables: []scenario.Table{tab},
		Notes: []string{
			"the tracked population grows every step while the work stays near the injection subdomains — exactly the growing imbalance the paper's DLB absorbs",
		},
	}, nil
}

// runCoupledDLB compares synchronous mode against several coupled f+p
// splits, with and without DLB, using the real lending implementation
// (pools resized whenever a rank parks in MPI). Do not expect DLB to win
// here: at this toy scale phases last microseconds, so a parked rank's
// cores are free elsewhere only briefly — the same trade-off that makes
// DLB pay off only when phases are long (the paper's production runs; the
// cluster-scale shapes are the fig8..fig11 scenarios). Behind
// examples/coupled_dlb.
func runCoupledDLB(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
	type config struct {
		label string
		mode  coupling.Mode
		f, pr int
	}
	configs := []config{
		{"sync 8", coupling.Synchronous, 8, 0},
		{"6+2", coupling.Coupled, 6, 2},
		{"4+4", coupling.Coupled, 4, 4},
		{"2+6", coupling.Coupled, 2, 6},
	}

	var sb strings.Builder
	sb.WriteString("execution mode and DLB comparison (real runs, wall clock)\n")
	fmt.Fprintf(&sb, "%-10s %12s %14s %10s %10s\n", "config", "orig wall", "dlb wall", "lends", "peak pool")
	for _, c := range configs {
		var walls [2]string
		var lends, peak int
		for i, useDLB := range []bool{false, true} {
			cfg := DefaultSimulationConfig()
			cfg.Run.Mode = c.mode
			cfg.Run.FluidRanks = c.f
			cfg.Run.ParticleRanks = c.pr
			cfg.Run.Steps = 3
			cfg.Run.NumParticles = 4000
			cfg.Run.RanksPerNode = c.f + c.pr // one shared-memory node
			cfg.Run.WorkersPerRank = 2
			cfg.Run.UseDLB = useDLB
			cfg.Run.NS.Strategy = tasking.StrategyMultidep
			if p.Steps > 0 {
				cfg.Run.Steps = p.Steps
			}
			if p.Particles > 0 {
				cfg.Run.NumParticles = p.Particles
			}
			if p.Workers > 0 {
				cfg.Run.WorkersPerRank = p.Workers
			}
			if p.Strategy != nil {
				cfg.Run.NS.Strategy = *p.Strategy
			}
			res, err := RunSimulationContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			walls[i] = res.Result.Wall.Round(time.Millisecond).String()
			if useDLB {
				lends = res.Result.DLB.Lends
				for _, v := range res.Result.DLB.PeakWorkers {
					if v > peak {
						peak = v
					}
				}
			}
		}
		fmt.Fprintf(&sb, "%-10s %12s %14s %10d %10d\n", c.label, walls[0], walls[1], lends, peak)
	}
	return &scenario.Artifact{
		Scenario: ScenarioCoupledDLB, Kind: scenario.KindReport,
		Title:  "execution mode and DLB comparison",
		Report: sb.String(),
		Notes: []string{
			"the lends/peak columns show cores really flowing between the codes; wall-clock gains need phase times >> hook costs (see the modeled fig8..fig11 scenarios)",
		},
	}, nil
}
