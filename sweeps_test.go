package repro

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/scenario"
)

// runSweepScenario executes the registered sweep scenario with p.
func runSweepScenario(t *testing.T, p scenario.Params) *scenario.Artifact {
	t.Helper()
	scs, err := scenario.Default.Select([]string{ScenarioSweep})
	if err != nil {
		t.Fatal(err)
	}
	art, err := scs[0].Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestSweepStopsOnCancel: a cancelled context stops the sweep at its
// first point, with an error that names the point and wraps the cause.
func TestSweepStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := scenario.NewParams(
		scenario.WithSweepDiameters(2.5e-6, 10e-6),
		scenario.WithSweepFlows(1.5),
		scenario.WithSweepGens(1),
	)
	art, err := runSweep(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if art != nil {
		t.Fatal("cancelled sweep returned an artifact")
	}
	if !strings.Contains(err.Error(), "d=2.5um q=1.5 g=1") {
		t.Fatalf("err %q does not name the first grid point", err)
	}
}

func TestSweepScenarioRowPerGridPoint(t *testing.T) {
	// A 2x1x1 grid must produce exactly 2 rows, in diameter-major grid
	// order, each a complete (axes + fates + efficiency) record.
	p := scenario.NewParams(
		scenario.WithSweepDiameters(10e-6, 2.5e-6),
		scenario.WithSweepFlows(1.5),
		scenario.WithSweepGens(1),
		scenario.WithParticles(100),
		scenario.WithSteps(1),
	)
	art := runSweepScenario(t, p)
	if len(art.Tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(art.Tables))
	}
	tab := art.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (grid cardinality)", len(tab.Rows))
	}
	if tab.Rows[0].Label != "d=2.5um q=1.5 g=1" || tab.Rows[1].Label != "d=10um q=1.5 g=1" {
		t.Fatalf("rows out of grid order: %q, %q", tab.Rows[0].Label, tab.Rows[1].Label)
	}
	for i, row := range tab.Rows {
		if len(row.Values) != len(tab.Columns) {
			t.Fatalf("row %d has %d values for %d columns", i, len(row.Values), len(tab.Columns))
		}
		injected, deposited, exited, airborne := row.Values[3], row.Values[4], row.Values[5], row.Values[6]
		if injected <= 0 {
			t.Fatalf("row %d injected %v particles", i, injected)
		}
		if injected != deposited+exited+airborne {
			t.Fatalf("row %d: particle conservation %v != %v+%v+%v",
				i, injected, deposited, exited, airborne)
		}
	}
}

func TestSweepArtifactRoundTrips(t *testing.T) {
	p := scenario.NewParams(
		scenario.WithSweepDiameters(2.5e-6),
		scenario.WithSweepFlows(0.9, 1.5),
		scenario.WithSweepGens(1),
		scenario.WithParticles(50),
		scenario.WithSteps(1),
	)
	art := runSweepScenario(t, p)

	text := art.Text()
	for _, want := range []string{"dosage sweep", "d=2.5um q=0.9 g=1", "dep_eff"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, text)
		}
	}

	raw, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Artifact
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Tables) != 1 || len(back.Tables[0].Rows) != 2 {
		t.Fatalf("JSON round trip lost rows: %+v", back.Tables)
	}
	if back.Tables[0].Rows[0].Values[7] != art.Tables[0].Rows[0].Values[7] {
		t.Fatal("JSON round trip changed dep_eff")
	}

	csv, err := art.CSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// Long-form CSV: header + one record per (grid point, column) cell.
	wantLines := 1 + 2*len(art.Tables[0].Columns)
	if len(lines) != wantLines {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), wantLines, csv)
	}
	if !strings.Contains(csv, "d=2.5um q=0.9 g=1,dep_eff,") {
		t.Fatalf("CSV missing the dep_eff cell of the first grid point:\n%s", csv)
	}
}

func TestSweepCostScalesWithCardinality(t *testing.T) {
	scs, err := scenario.Default.Select([]string{ScenarioSweep})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := scs[0].(scenario.Coster)
	if !ok {
		t.Fatal("sweep scenario does not implement scenario.Coster")
	}
	// Default grid: 2x2x1 = 4 points at 2 ranks x 2 steps each.
	if got := c.EstimateCost(scenario.Params{}); got != 4*2*2 {
		t.Fatalf("default sweep cost = %d, want 16", got)
	}
	big := scenario.Params{
		SweepDiameters: []float64{1e-6, 2e-6, 4e-6},
		SweepFlows:     []float64{0.9, 1.5},
		SweepGens:      []int{1, 2},
		Ranks:          4,
		Steps:          3,
	}
	if got := c.EstimateCost(big); got != 3*2*2*4*3 {
		t.Fatalf("big sweep cost = %d, want %d", got, 3*2*2*4*3)
	}
}

func TestBreathingScenarioRuns(t *testing.T) {
	scs, err := scenario.Default.Select([]string{ScenarioBreathing})
	if err != nil {
		t.Fatal(err)
	}
	p := scenario.NewParams(scenario.WithSteps(2), scenario.WithParticles(100))
	art, err := scs[0].Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kind != scenario.KindReport {
		t.Fatalf("kind = %v", art.Kind)
	}
	if !strings.Contains(art.Report, "waveform: breathing:") {
		t.Fatalf("report missing waveform line:\n%s", art.Report)
	}
	// InjectEvery=1 over 2 steps: both releases must land.
	if !strings.Contains(art.Report, "released over 2 steps:     200") {
		t.Fatalf("report missing per-step releases:\n%s", art.Report)
	}
}
