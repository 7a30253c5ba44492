package repro

import (
	"context"
	"fmt"

	"repro/scenario"
)

// Scenario names registered by this package, paper evaluation first (the
// `benchfig -exp all` suite, tag "paper") then the example workloads
// (tag "example"). Registration order is the order `benchfig` runs and
// lists them in.
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
func table1Opts(p scenario.Params) Table1Options {
	opts := DefaultTable1Options()
	if p.Ranks > 0 {
		opts.Ranks = p.Ranks
	}
	if p.Steps > 0 {
		opts.Steps = p.Steps
	}
	if p.Particles > 0 {
		opts.Particles = p.Particles
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

// figureArtifact converts modeled FigureResults into one figure artifact.
func figureArtifact(name string, figs ...*FigureResult) *scenario.Artifact {
	a := &scenario.Artifact{Scenario: name, Kind: scenario.KindFigure}
	for _, f := range figs {
		fig := scenario.Figure{ID: f.ID, Title: f.Title, Unit: f.Unit, Notes: f.Notes}
		for _, s := range f.Series {
			fig.Series = append(fig.Series, scenario.Series{Name: s.Name, Labels: s.Labels, Values: s.Values})
		}
		a.Figures = append(a.Figures, fig)
	}
	return a
}

// platformFigures runs fn once per selected platform, in paper order.
func platformFigures(p scenario.Params, fn func(platform string) (*FigureResult, error)) ([]*FigureResult, error) {
	var out []*FigureResult
	selected := false
	for _, platform := range []string{"MareNostrum4", "Thunder"} {
		if !p.PlatformSelected(platform) {
			continue
		}
		selected = true
		f, err := fn(platform)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if !selected {
		return nil, fmt.Errorf("repro: no platform selected from %v (have MareNostrum4, Thunder)", p.Platforms)
	}
	return out, nil
}

// traceArtifact builds the Figure-2 style trace artifact from a
// calibrated Table-1 run.
func traceArtifact(name, title string, t *Table1Result, width, rows int) *scenario.Artifact {
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
			t, err := Table1Context(ctx, table1Opts(p))
			if err != nil {
				return nil, err
			}
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
			}, nil
		}))

	reg(scenario.New(ScenarioFigure2,
		"Figure 2: Paraver-style timeline of the Table-1 run (shares Table 1's calibrated simulation)",
		[]string{"paper", "measured", "trace"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			opts := table1Opts(p)
			t, err := Table1Context(ctx, opts)
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
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			figs, err := platformFigures(p, Figure6)
			if err != nil {
				return nil, err
			}
			return figureArtifact(ScenarioFigure6, figs...), nil
		}))

	reg(scenario.New(ScenarioFigure7,
		"Figure 7: modeled speedup of hybrid SGS over the MPI-only code, per platform",
		[]string{"paper", "model", "figure"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			figs, err := platformFigures(p, Figure7)
			if err != nil {
				return nil, err
			}
			return figureArtifact(ScenarioFigure7, figs...), nil
		}))

	dlbFigs := []struct {
		name string
		desc string
		fn   func() (*FigureResult, error)
	}{
		{ScenarioFigure8, "Figure 8: modeled 4e5-particle coupled runs with and without DLB on MareNostrum4", Figure8},
		{ScenarioFigure9, "Figure 9: modeled 4e5-particle coupled runs with and without DLB on Thunder", Figure9},
		{ScenarioFigure10, "Figure 10: modeled 7e6-particle coupled runs with and without DLB on MareNostrum4", Figure10},
		{ScenarioFigure11, "Figure 11: modeled 7e6-particle coupled runs with and without DLB on Thunder", Figure11},
	}
	for _, fg := range dlbFigs {
		fn := fg.fn
		name := fg.name
		reg(scenario.New(name, fg.desc,
			[]string{"paper", "model", "figure", "dlb"},
			func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
				f, err := fn()
				if err != nil {
					return nil, err
				}
				return figureArtifact(name, f), nil
			}))
	}

	reg(scenario.New(ScenarioIPC,
		"Section 4.3: assembly-phase IPC per strategy on both platforms, against the paper's measurements",
		[]string{"paper", "model", "report"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return &scenario.Artifact{
				Scenario: ScenarioIPC, Kind: scenario.KindReport,
				Title:  "Assembly-phase IPC (Section 4.3)",
				Report: IPCReport(),
			}, nil
		}))

	reg(scenario.New(ScenarioAblation,
		"Ablation: multidependences neighbor-list keying (paper) vs exact edge keying, per platform",
		[]string{"paper", "model", "figure"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			figs, err := platformFigures(p, MultidepKeyingAblation)
			if err != nil {
				return nil, err
			}
			return figureArtifact(ScenarioAblation, figs...), nil
		}))
}
