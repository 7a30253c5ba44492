package repro

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/scenario"
)

// Scenario names registered by this package, paper evaluation first (the
// `respira fig -exp all` suite, tag "paper") then the example workloads
// (tag "example"). Registration order is the order `respira fig` runs
// and lists them in.
const (
	ScenarioTable1   = "table1"
	ScenarioFigure2  = "fig2"
	ScenarioFigure6  = "fig6"
	ScenarioFigure7  = "fig7"
	ScenarioFigure8  = "fig8"
	ScenarioFigure9  = "fig9"
	ScenarioFigure10 = "fig10"
	ScenarioFigure11 = "fig11"
	ScenarioIPC      = "ipc"
	ScenarioAblation = "ablation"
)

func init() {
	registerPaperScenarios()
	registerExampleScenarios()
	registerSweepScenarios()
}

// table1Opts maps scenario params onto Table-1 run options.
func table1Opts(p scenario.Params) table1Options {
	opts := defaultTable1Options()
	if p.Ranks > 0 {
		opts.Ranks = p.Ranks
	}
	if p.Steps > 0 {
		opts.Steps = p.Steps
	}
	if p.Particles != nil {
		opts.Particles = *p.Particles
	}
	if p.MeshGenerations > 0 {
		opts.MeshGen = p.MeshGenerations
	}
	return opts
}

// timeline returns the trace rendering size: params override, else the
// given defaults.
func timeline(p scenario.Params, width, rows int) (int, int) {
	if p.Width > 0 {
		width = p.Width
	}
	if p.Rows > 0 {
		rows = p.Rows
	}
	return width, rows
}

// perPlatform is the run function of a modeled figure drawn once per
// selected platform, in paper order.
func perPlatform(name string, fn func(arch.Profile) (scenario.Figure, error)) func(context.Context, scenario.Params) (*scenario.Artifact, error) {
	return func(_ context.Context, p scenario.Params) (*scenario.Artifact, error) {
		a := &scenario.Artifact{Scenario: name, Kind: scenario.KindFigure}
		for _, platform := range arch.Platforms() {
			if !p.PlatformSelected(platform.Name) {
				continue
			}
			f, err := fn(platform)
			if err != nil {
				return nil, err
			}
			a.Figures = append(a.Figures, f)
		}
		if len(a.Figures) == 0 {
			return nil, fmt.Errorf("repro: no platform selected from %v (have MareNostrum4, Thunder)", p.Platforms)
		}
		return a, nil
	}
}

// table1Artifact renders a Table-1 run as measured-vs-paper rows.
func table1Artifact(t *table1Result) *scenario.Artifact {
	tab := scenario.Table{
		Title:    fmt.Sprintf("Table 1 — load balance and time share per phase (%d MPI ranks)", t.Ranks),
		LabelCol: scenario.Column{Name: "Phase", HeaderFmt: "%-18s", CellFmt: "%-18s"},
		Columns: []scenario.Column{
			{Name: "Ln meas", HeaderFmt: "%10s", CellFmt: "%10.2f"},
			{Name: "Ln paper", HeaderFmt: "%10s", CellFmt: "%10.2f"},
			{Name: "%T meas", HeaderFmt: "%12s", CellFmt: "%11.2f%%"},
			{Name: "%T paper", HeaderFmt: "%12s", CellFmt: "%11.2f%%"},
		},
	}
	for i, r := range t.Rows {
		tab.Rows = append(tab.Rows, scenario.TableRow{
			Label:  r.Name,
			Values: []float64{r.Ln, t.Paper[i].Ln, r.Percent, t.Paper[i].Percent},
		})
	}
	return &scenario.Artifact{
		Scenario: ScenarioTable1, Kind: scenario.KindTable,
		Title:  tab.Title,
		Tables: []scenario.Table{tab},
	}
}

// traceArtifact builds the Figure-2 style trace artifact from a
// calibrated Table-1 run.
func traceArtifact(name, title string, t *table1Result, width, rows int) *scenario.Artifact {
	phaseTimes := t.Trace.PhaseTimes()
	td := &scenario.TraceData{Ranks: t.Ranks, Rendered: t.Trace.Render(width, rows)}
	for i, ph := range phaseOrder {
		td.Phases = append(td.Phases, scenario.PhaseTotals{
			Phase:   PhaseNames[i],
			PerRank: phaseTimes[ph],
		})
	}
	return &scenario.Artifact{Scenario: name, Kind: scenario.KindTrace, Title: title, Trace: td}
}

func registerPaperScenarios() {
	reg := scenario.MustRegister

	reg(scenario.New(ScenarioTable1,
		"Table 1: per-phase load balance Ln and time shares of the real synchronous run at the paper's rank count",
		[]string{"paper", "measured", "table"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			t, err := table1Shared(ctx, table1Opts(p))
			if err != nil {
				return nil, err
			}
			return table1Artifact(t), nil
		}))

	reg(scenario.New(ScenarioFigure2,
		"Figure 2: Paraver-style timeline of the Table-1 run (shares Table 1's calibrated simulation)",
		[]string{"paper", "measured", "trace"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			t, err := table1Shared(ctx, table1Opts(p))
			if err != nil {
				return nil, err
			}
			width, rows := timeline(p, 100, 24)
			title := fmt.Sprintf("Figure 2 — trace of the respiratory simulation (one node, %d ranks)", t.Ranks)
			return traceArtifact(ScenarioFigure2, title, t, width, rows), nil
		}))

	reg(scenario.New(ScenarioFigure6,
		"Figure 6: modeled speedup of hybrid matrix assembly over the MPI-only code, per platform",
		[]string{"paper", "model", "figure"},
		perPlatform(ScenarioFigure6, figure6)))

	reg(scenario.New(ScenarioFigure7,
		"Figure 7: modeled speedup of hybrid SGS over the MPI-only code, per platform",
		[]string{"paper", "model", "figure"},
		perPlatform(ScenarioFigure7, figure7)))

	dlbFigs := []struct {
		name, id  string
		platform  arch.Profile
		particles float64
		desc      string
	}{
		{ScenarioFigure8, "Figure 8", arch.MareNostrum4(), 4e5, "Figure 8: modeled 4e5-particle coupled runs with and without DLB on MareNostrum4"},
		{ScenarioFigure9, "Figure 9", arch.ThunderX(), 4e5, "Figure 9: modeled 4e5-particle coupled runs with and without DLB on Thunder"},
		{ScenarioFigure10, "Figure 10", arch.MareNostrum4(), 7e6, "Figure 10: modeled 7e6-particle coupled runs with and without DLB on MareNostrum4"},
		{ScenarioFigure11, "Figure 11", arch.ThunderX(), 7e6, "Figure 11: modeled 7e6-particle coupled runs with and without DLB on Thunder"},
	}
	for _, fg := range dlbFigs {
		reg(scenario.New(fg.name, fg.desc,
			[]string{"paper", "model", "figure", "dlb"},
			func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
				f, err := dlbFigure(fg.id, fg.platform, fg.particles)
				if err != nil {
					return nil, err
				}
				return &scenario.Artifact{Scenario: fg.name, Kind: scenario.KindFigure, Figures: []scenario.Figure{f}}, nil
			}))
	}

	reg(scenario.New(ScenarioIPC,
		"Section 4.3: assembly-phase IPC per strategy on both platforms, against the paper's measurements",
		[]string{"paper", "model", "report"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return &scenario.Artifact{
				Scenario: ScenarioIPC, Kind: scenario.KindReport,
				Title:  "Assembly-phase IPC (Section 4.3)",
				Report: ipcReport(),
			}, nil
		}))

	reg(scenario.New(ScenarioAblation,
		"Ablation: multidependences neighbor-list keying (paper) vs exact edge keying, per platform",
		[]string{"paper", "model", "figure"},
		perPlatform(ScenarioAblation, keyingAblation)))
}
