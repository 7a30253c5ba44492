package repro

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/coupling"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/scenario"
)

func TestRunSimulationDefault(t *testing.T) {
	cfg := DefaultSimulationConfig()
	cfg.Run.Steps = 2
	cfg.Run.NumParticles = 300
	cfg.Run.NS.Strategy = tasking.StrategySerial
	res, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if res.Result.Injected != res.Result.ActiveEnd+res.Result.Deposited+res.Result.Exited {
		t.Fatal("particle conservation broken")
	}
	if s := res.Summary(); !strings.Contains(s, "injected=") {
		t.Fatalf("summary: %s", s)
	}
}

func TestRunSimulationCoupledWithDLB(t *testing.T) {
	cfg := DefaultSimulationConfig()
	cfg.Run.Mode = coupling.Coupled
	cfg.Run.FluidRanks = 3
	cfg.Run.ParticleRanks = 1
	cfg.Run.RanksPerNode = 4
	cfg.Run.Steps = 2
	cfg.Run.NumParticles = 300
	cfg.Run.UseDLB = true
	cfg.Run.WorkersPerRank = 2
	cfg.Run.NS.Strategy = tasking.StrategySerial
	// DLB lends only when a rank parks: hold rank 0 back from the world
	// Split for far longer than any spin budget, so its peers park there.
	cfg.Run.FaultPlan = &simmpi.FaultPlan{Rules: []simmpi.FaultRule{{
		Rank: 0, Op: simmpi.FaultCollective, Tag: -1, Step: 0, Nth: 1,
		Action: simmpi.FaultDelay, Delay: 50 * time.Millisecond,
	}}}
	res, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.DLB.Lends == 0 {
		t.Fatal("DLB run recorded no lends")
	}
	if s := res.Summary(); !strings.Contains(s, "dlb:") {
		t.Fatalf("summary should mention dlb: %s", s)
	}
}

func smallTable1Opts() table1Options {
	return table1Options{Ranks: 24, Steps: 1, Particles: 3000, MeshGen: 2}
}

// smallTable1Params selects smallTable1Opts through the scenario options.
func smallTable1Params(opts ...scenario.Option) scenario.Params {
	o := smallTable1Opts()
	return scenario.NewParams(append([]scenario.Option{scenario.WithRanks(o.Ranks), scenario.WithSteps(o.Steps),
		scenario.WithParticles(o.Particles), scenario.WithMesh(o.MeshGen)}, opts...)...)
}

// runScenario runs one registered scenario and fails the test on error.
func runScenario(t testing.TB, name string, p scenario.Params) *scenario.Artifact {
	t.Helper()
	s, err := scenario.Default.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return a
}

func TestTable1SmallShapes(t *testing.T) {
	a := runScenario(t, ScenarioTable1, smallTable1Params())
	if len(a.Tables) != 1 || len(a.Tables[0].Rows) != 5 {
		t.Fatalf("got %d tables, want one of 5 rows", len(a.Tables))
	}
	// Columns: Ln meas, Ln paper, %T meas, %T paper.
	byName := map[string]float64{}
	sum := 0.0
	for _, r := range a.Tables[0].Rows {
		ln := r.Values[0]
		if ln <= 0 || ln > 1 {
			t.Fatalf("%s Ln=%g out of range", r.Label, ln)
		}
		byName[r.Label] = ln
		sum += r.Values[2]
	}
	// The paper's qualitative ordering: particles pathological, assembly
	// and SGS notably imbalanced, everything far from perfect.
	if byName["Particles"] > 0.25 {
		t.Fatalf("particles Ln=%g: injection pathology missing", byName["Particles"])
	}
	if byName["Particles"] > byName["Matrix assembly"] {
		t.Fatal("particles must be the least balanced phase")
	}
	// Shares sum to the accounted fraction (~86%).
	if math.Abs(sum-85.97) > 1.0 {
		t.Fatalf("share sum %.2f, want ~85.97", sum)
	}
	if !strings.Contains(a.Text(), "Ln paper") {
		t.Fatal("format")
	}
}

func TestFigure2Renders(t *testing.T) {
	a := runScenario(t, ScenarioFigure2, smallTable1Params(scenario.WithTimeline(60, 8)))
	if out := a.Text(); !strings.Contains(out, "A") || !strings.Contains(out, "timeline") {
		t.Fatalf("figure 2 output:\n%s", out)
	}
}

func TestFigure6And7BothPlatforms(t *testing.T) {
	for _, platform := range []string{"MareNostrum4", "Thunder"} {
		a6 := runScenario(t, ScenarioFigure6, scenario.NewParams(scenario.WithPlatforms(platform)))
		if len(a6.Figures) != 1 || len(a6.Figures[0].Series) != 3 {
			t.Fatalf("fig6 %s: want one figure of 3 series", platform)
		}
		for _, s := range a6.Figures[0].Series {
			if len(s.Values) != 3 {
				t.Fatalf("fig6 %s %s: %d configs", platform, s.Name, len(s.Values))
			}
		}
		if !strings.Contains(a6.Text(), "Multidep") {
			t.Fatal("fig6 format")
		}
		a7 := runScenario(t, ScenarioFigure7, scenario.NewParams(scenario.WithPlatforms(platform)))
		if len(a7.Figures) != 1 || len(a7.Figures[0].Series) != 3 || len(a7.Figures[0].Notes) == 0 {
			t.Fatalf("fig7 %s shape", platform)
		}
	}
	s, err := scenario.Default.Get(ScenarioFigure6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), scenario.NewParams(scenario.WithPlatforms("NoSuchMachine"))); err == nil {
		t.Fatal("unknown platform must error")
	}
}

func TestFigures8To11(t *testing.T) {
	for _, name := range []string{ScenarioFigure8, ScenarioFigure9, ScenarioFigure10, ScenarioFigure11} {
		a := runScenario(t, name, scenario.Params{})
		if len(a.Figures) != 1 {
			t.Fatalf("%s: %d figures", name, len(a.Figures))
		}
		f := a.Figures[0]
		if len(f.Series) != 2 {
			t.Fatalf("%s: %d series, want Original+DLB", f.ID, len(f.Series))
		}
		orig, dlb := f.Series[0], f.Series[1]
		for i := range orig.Values {
			if dlb.Values[i] >= orig.Values[i] {
				t.Fatalf("%s %s: DLB %g not better than original %g",
					f.ID, orig.Labels[i], dlb.Values[i], orig.Values[i])
			}
		}
	}
}

func TestIPCReport(t *testing.T) {
	r := runScenario(t, ScenarioIPC, scenario.Params{}).Report
	for _, want := range []string{"2.25", "1.15", "0.49", "0.42", "MareNostrum4", "Thunder"} {
		if !strings.Contains(r, want) {
			t.Fatalf("IPC report missing %q:\n%s", want, r)
		}
	}
}

func TestMultidepKeyingAblation(t *testing.T) {
	a := runScenario(t, ScenarioAblation, scenario.NewParams(scenario.WithPlatforms("MareNostrum4")))
	if len(a.Figures) != 1 || len(a.Figures[0].Series) != 2 {
		t.Fatalf("want one figure of 2 series, got %d figures", len(a.Figures))
	}
	// Exact edge keys never serialize more than neighbor keys.
	nb, eg := a.Figures[0].Series[0], a.Figures[0].Series[1]
	for i := range nb.Values {
		if eg.Values[i] < nb.Values[i]*0.999 {
			t.Fatalf("edge keys slower than neighbor keys at %s: %g vs %g",
				nb.Labels[i], eg.Values[i], nb.Values[i])
		}
	}
}

func TestPaperTable1Reference(t *testing.T) {
	if len(PaperTable1) != 5 || PaperTable1[4].Ln != 0.02 {
		t.Fatal("paper reference values")
	}
	if len(PhaseNames) != len(PaperTable1) {
		t.Fatal("phase name count")
	}
}
