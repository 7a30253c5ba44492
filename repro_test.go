package repro

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/coupling"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

func TestRunSimulationDefault(t *testing.T) {
	cfg := DefaultSimulationConfig()
	cfg.Run.Steps = 2
	cfg.Run.NumParticles = 300
	cfg.Run.NS.Strategy = tasking.StrategySerial
	cfg.Run.NS.SGSStrategy = tasking.StrategySerial
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
	cfg.Run.NS.SGSStrategy = tasking.StrategySerial
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

func smallTable1Opts() Table1Options {
	return Table1Options{Ranks: 24, Steps: 1, Particles: 3000, MeshGen: 2}
}

func TestTable1SmallShapes(t *testing.T) {
	res, err := Table1(smallTable1Opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	byName := map[string]float64{}
	for _, r := range res.Rows {
		if r.Ln <= 0 || r.Ln > 1 {
			t.Fatalf("%s Ln=%g out of range", r.Name, r.Ln)
		}
		byName[r.Name] = r.Ln
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
	sum := 0.0
	for _, r := range res.Rows {
		sum += r.Percent
	}
	if math.Abs(sum-85.97) > 1.0 {
		t.Fatalf("share sum %.2f, want ~85.97", sum)
	}
	if !strings.Contains(res.Format(), "Ln paper") {
		t.Fatal("format")
	}
}

func TestFigure2Renders(t *testing.T) {
	out, err := Figure2(smallTable1Opts(), 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "timeline") {
		t.Fatalf("figure 2 output:\n%s", out)
	}
}

func TestFigure6And7BothPlatforms(t *testing.T) {
	for _, platform := range []string{"MareNostrum4", "Thunder"} {
		f6, err := Figure6(platform)
		if err != nil {
			t.Fatal(err)
		}
		if len(f6.Series) != 3 {
			t.Fatalf("fig6 %s: %d series", platform, len(f6.Series))
		}
		for _, s := range f6.Series {
			if len(s.Values) != 3 {
				t.Fatalf("fig6 %s %s: %d configs", platform, s.Name, len(s.Values))
			}
		}
		if !strings.Contains(f6.Format(), "Multidep") {
			t.Fatal("fig6 format")
		}
		f7, err := Figure7(platform)
		if err != nil {
			t.Fatal(err)
		}
		if len(f7.Series) != 3 || len(f7.Notes) == 0 {
			t.Fatalf("fig7 %s shape", platform)
		}
	}
	if _, err := Figure6("NoSuchMachine"); err == nil {
		t.Fatal("unknown platform must error")
	}
}

func TestFigures8To11(t *testing.T) {
	for _, fn := range []func() (*FigureResult, error){Figure8, Figure9, Figure10, Figure11} {
		f, err := fn()
		if err != nil {
			t.Fatal(err)
		}
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
	r := IPCReport()
	for _, want := range []string{"2.25", "1.15", "0.49", "0.42", "MareNostrum4", "Thunder"} {
		if !strings.Contains(r, want) {
			t.Fatalf("IPC report missing %q:\n%s", want, r)
		}
	}
}

func TestMultidepKeyingAblation(t *testing.T) {
	f, err := MultidepKeyingAblation("MareNostrum4")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("%d series", len(f.Series))
	}
	// Exact edge keys never serialize more than neighbor keys.
	nb, eg := f.Series[0], f.Series[1]
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
