package repro

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coupling"
	"repro/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the scenario goldens under testdata/ from the current code")

// goldenTable1 sizes table1 and fig2 for the goldens: small enough for
// the test suite, large enough that every phase has work on every rank.
func goldenTable1() scenario.Params {
	return scenario.NewParams(scenario.WithRanks(8), scenario.WithSteps(2),
		scenario.WithParticles(2000), scenario.WithMesh(2))
}

// scenarioGoldens pins the rendered artifact of every deterministic
// scenario. Modeled figures and reports run at their defaults; the
// measured table1/fig2 pair and pollutant run at fixed sizes (virtual
// time and seeded injection make them deterministic too).
var scenarioGoldens = []struct {
	file     string
	scenario string
	params   scenario.Params
	format   string // "text", "json" or "csv"
}{
	{"fig6.txt", ScenarioFigure6, scenario.Params{}, "text"},
	{"fig6.json", ScenarioFigure6, scenario.Params{}, "json"},
	{"fig6.csv", ScenarioFigure6, scenario.Params{}, "csv"},
	{"fig7.txt", ScenarioFigure7, scenario.Params{}, "text"},
	{"fig8.txt", ScenarioFigure8, scenario.Params{}, "text"},
	{"fig9.txt", ScenarioFigure9, scenario.Params{}, "text"},
	{"fig10.txt", ScenarioFigure10, scenario.Params{}, "text"},
	{"fig11.txt", ScenarioFigure11, scenario.Params{}, "text"},
	{"ipc.txt", ScenarioIPC, scenario.Params{}, "text"},
	{"ablation.txt", ScenarioAblation, scenario.Params{}, "text"},
	{"table1.txt", ScenarioTable1, goldenTable1(), "text"},
	{"table1.json", ScenarioTable1, goldenTable1(), "json"},
	{"table1.csv", ScenarioTable1, goldenTable1(), "csv"},
	{"fig2.txt", ScenarioFigure2, goldenTable1(), "text"},
	{"pollutant.txt", ScenarioPollutant, scenario.Params{}, "text"},
	{"pollutant_r4_s12_p1500.txt", ScenarioPollutant,
		scenario.NewParams(scenario.WithRanks(4), scenario.WithSteps(12), scenario.WithParticles(1500)), "text"},
	// Pollutant runs synchronously whatever mode is asked for: a coupled
	// request returns the default artifact.
	{"pollutant.txt", ScenarioPollutant,
		scenario.NewParams(scenario.WithMode(coupling.Coupled), scenario.WithParticleRanks(2)), "text"},
}

func renderArtifact(t *testing.T, a *scenario.Artifact, format string) []byte {
	t.Helper()
	switch format {
	case "json":
		js, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return append(js, '\n')
	case "csv":
		out, err := a.CSV()
		if err != nil {
			t.Fatal(err)
		}
		return []byte(out)
	}
	return []byte(a.Text())
}

// TestScenarioGoldens compares each scenario's rendering byte for byte
// with testdata/golden. Run with -update to rewrite the files after an
// intended output change.
func TestScenarioGoldens(t *testing.T) {
	for _, g := range scenarioGoldens {
		t.Run(g.scenario+"/"+g.file, func(t *testing.T) {
			s, err := scenario.Default.Get(g.scenario)
			if err != nil {
				t.Fatal(err)
			}
			a, err := s.Run(context.Background(), g.params)
			if err != nil {
				t.Fatal(err)
			}
			got := renderArtifact(t, a, g.format)
			path := filepath.Join("testdata", "golden", g.file)
			// A row that reuses another row's file (the coupled pollutant
			// request) only ever compares, even under -update.
			if *updateGolden && g.params.Mode == nil {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", g.scenario, path, got, want)
			}
		})
	}
}
