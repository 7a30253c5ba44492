package repro

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/scenario"
)

// smallParams keeps every measured scenario laptop-test sized.
func smallParams() scenario.Params {
	return scenario.NewParams(
		scenario.WithRanks(8),
		scenario.WithSteps(1),
		scenario.WithParticles(500),
		scenario.WithMesh(2),
		scenario.WithTimeline(60, 8),
	)
}

// TestRegistryHoldsAllWorkloads pins the acceptance shape: the 10 paper
// experiments in their historical order, plus the 4 example workloads —
// at least 15 scenarios enumerable by name.
func TestRegistryHoldsAllWorkloads(t *testing.T) {
	names := scenario.Default.Names()
	if len(names) < 15 {
		t.Fatalf("registry holds %d scenarios, want >= 15", len(names))
	}
	want := []string{
		ScenarioTable1, ScenarioFigure2, ScenarioFigure6, ScenarioFigure7,
		ScenarioFigure8, ScenarioFigure9, ScenarioFigure10, ScenarioFigure11,
		ScenarioIPC, ScenarioAblation,
		ScenarioQuickstart, ScenarioRespiratory, ScenarioPollutant, ScenarioCoupledDLB,
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registration order: names[%d] = %q, want %q", i, names[i], n)
		}
	}
	paper := scenario.Default.WithTag("paper")
	if len(paper) != 10 {
		t.Fatalf("paper suite = %d scenarios, want 10", len(paper))
	}
	example := scenario.Default.WithTag("example")
	if len(example) != 4 {
		t.Fatalf("example workloads = %d scenarios, want 4", len(example))
	}
	sweep := scenario.Default.WithTag("sweep")
	if len(sweep) != 2 {
		t.Fatalf("sweep family = %d scenarios, want 2", len(sweep))
	}
}

// TestEveryScenarioRunsAndRoundTripsJSON executes all 16 registered
// scenarios at test scale and checks each artifact renders to non-empty
// text, JSON that encoding/json round-trips, and CSV under the uniform
// header.
func TestEveryScenarioRunsAndRoundTripsJSON(t *testing.T) {
	p := smallParams()
	for _, s := range scenario.Default.Scenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			a, err := s.Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if a.Scenario != s.Name() {
				t.Fatalf("artifact names scenario %q, want %q", a.Scenario, s.Name())
			}
			if a.Kind == "" {
				t.Fatal("artifact has no kind")
			}
			if a.Text() == "" {
				t.Fatal("empty text rendering")
			}
			js, err := a.JSON()
			if err != nil {
				t.Fatal(err)
			}
			var back scenario.Artifact
			if err := json.Unmarshal(js, &back); err != nil {
				t.Fatalf("JSON round-trip: %v", err)
			}
			if back.Scenario != a.Scenario || back.Kind != a.Kind {
				t.Fatal("JSON round-trip lost identity")
			}
			csv, err := a.CSV()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(csv, strings.Join(scenario.CSVHeader, ",")) {
				t.Fatalf("csv header missing:\n%s", csv)
			}
		})
	}
}

// TestFigure2SharesTable1Run pins the satellite fix: Table 1 and its
// Figure-2 trace rendering share one memoized probe + measured run pair
// per option set (the seed recomputed everything).
func TestFigure2SharesTable1Run(t *testing.T) {
	p := smallTable1Params()
	runScenario(t, ScenarioTable1, p)
	// fig2 reads the memo entry the table1 scenario filled for these
	// params: it serves even a dead context, the same result every time.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := table1Shared(dead, table1Opts(p))
	if err != nil {
		t.Fatalf("table1 scenario left no shared run for fig2: %v", err)
	}
	b, err := table1Shared(context.Background(), table1Opts(p))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Table1 results not memoized: Figure2 would re-run the simulation")
	}
	// Different options are distinct cache entries.
	opts2 := table1Opts(p)
	opts2.Ranks++
	c, err := table1Shared(context.Background(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct options must not share a run")
	}
}

// TestTable1ContextCancelled: a pre-cancelled context stops the
// calibration probe before any step and does not poison the cache.
func TestTable1ContextCancelled(t *testing.T) {
	// Private option set (6 ranks): miss the shared cache on purpose.
	p := smallTable1Params(scenario.WithRanks(6))
	s, err := scenario.Default.Get(ScenarioTable1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The failed computation must not be cached: a live context succeeds.
	if _, err := s.Run(context.Background(), p); err != nil {
		t.Fatalf("cache poisoned by cancelled run: %v", err)
	}
}

// TestTable1SharedRetriesAfterFailedLeader: a failed (cancelled) leader
// must not poison the cache entry — a later caller with a live context
// recomputes and succeeds. (The concurrent leader/waiter retry semantics
// are pinned at the cache layer in internal/memo.)
func TestTable1SharedRetriesAfterFailedLeader(t *testing.T) {
	opts := smallTable1Opts()
	opts.Ranks = 5 // private option set: this test owns the cache entry
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := table1Shared(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader err = %v, want context.Canceled", err)
	}
	res, err := table1Shared(context.Background(), opts)
	if err != nil {
		t.Fatalf("live retry inherited the failed leader's fate: %v", err)
	}
	if res == nil || len(res.Rows) == 0 {
		t.Fatal("retry produced no result")
	}
	// The successful retry is now cached; even a dead context gets the
	// memoized result without recomputation.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := table1Shared(ctx2, opts); err != nil {
		t.Fatalf("cached result must serve any caller: %v", err)
	}
}

// TestCalibrateRejectsNonPositiveShares: a reference row with zero (or
// NaN) time share must error instead of yielding Inf/NaN cost units.
func TestCalibrateRejectsNonPositiveShares(t *testing.T) {
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 1
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		t.Fatal(err)
	}
	rc := coupling.DefaultRunConfig()
	bad := append([]metrics.PhaseRow(nil), PaperTable1...)
	bad[0].Percent = 0
	if _, err := CalibratePhaseUnits(context.Background(), m, rc, bad); err == nil {
		t.Fatal("zero assembly share must be rejected")
	}
	bad[0].Percent = math.NaN()
	if _, err := CalibratePhaseUnits(context.Background(), m, rc, bad); err == nil {
		t.Fatal("NaN share must be rejected")
	}
	if _, err := CalibratePhaseUnits(context.Background(), m, rc, PaperTable1[:3]); err == nil {
		t.Fatal("wrong row count must be rejected")
	}
}

// TestScenarioCancellationThreadsDown: cancelling mid-run stops a
// measured scenario at the next step boundary with ctx.Err().
func TestScenarioCancellationThreadsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{ScenarioQuickstart, ScenarioPollutant} {
		s, err := scenario.Default.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(ctx, smallParams()); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestQuickstartZeroParticles: "particles": 0 is a fluid-only run, not
// "use the default count" — the option injects nothing.
func TestQuickstartZeroParticles(t *testing.T) {
	var spec scenario.ParamsSpec
	if err := json.Unmarshal([]byte(`{"particles":0,"steps":1}`), &spec); err != nil {
		t.Fatal(err)
	}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Default.Get(ScenarioQuickstart)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Report, "injected=0 deposited=0 exited=0 active=0") {
		t.Fatalf("particles 0 still injected:\n%s", a.Report)
	}
}
