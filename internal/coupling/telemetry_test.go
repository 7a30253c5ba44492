package coupling

import (
	"context"
	"testing"

	"repro/internal/tasking"
	"repro/internal/telemetry"
)

// recordedRun executes cfg with a fresh in-memory store attached and
// returns the store, the run's metadata, and the run result.
func recordedRun(t *testing.T, cfg RunConfig) (*telemetry.Store, telemetry.RunMeta, *RunResult) {
	t.Helper()
	st := telemetry.NewMemStore()
	cfg.Telemetry = st
	res, err := RunContext(context.Background(), testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := st.Runs()
	if len(runs) != 1 {
		t.Fatalf("recorded %d runs, want 1", len(runs))
	}
	return st, runs[0], res
}

// The acceptance pin: a run persisted to the store and reloaded must
// render byte-identically to the in-memory trace of the original run.
func TestPersistedRunRendersByteIdentically(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 4
	st, meta, res := recordedRun(t, cfg)

	tr, got, err := st.Trace(meta.Run)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != "synchronous" || got.Ranks != 4 || got.Steps != cfg.Steps || !got.Complete {
		t.Fatalf("meta = %+v", got)
	}
	if got.Makespan != res.Makespan {
		t.Fatalf("meta makespan %v != %v", got.Makespan, res.Makespan)
	}
	if tr.MaxClock() != res.Trace.MaxClock() {
		t.Fatalf("reloaded MaxClock %v != %v", tr.MaxClock(), res.Trace.MaxClock())
	}
	for _, dims := range [][2]int{{100, 24}, {61, 3}} {
		want := res.Trace.Render(dims[0], dims[1])
		if gotR := tr.Render(dims[0], dims[1]); gotR != want {
			t.Fatalf("render %dx%d differs:\n--- in-memory\n%s--- reloaded\n%s",
				dims[0], dims[1], want, gotR)
		}
	}
}

func TestRunRecordsStepMarkers(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 2
	cfg.Steps = 3
	st, meta, res := recordedRun(t, cfg)

	rows, err := st.Query(meta.Run, telemetry.Query{Rank: telemetry.WorldRank, HasRank: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	var lastClock float64
	for _, r := range rows {
		if r.Kind != telemetry.KindStep {
			continue
		}
		if int(r.Step) != steps {
			t.Fatalf("step markers out of order: got step %d at position %d", r.Step, steps)
		}
		if r.Start != r.End {
			t.Fatalf("step marker %d is not a point event: %+v", r.Step, r)
		}
		lastClock = r.Start
		steps++
	}
	if steps != cfg.Steps {
		t.Fatalf("%d step markers, want %d", steps, cfg.Steps)
	}
	// The synchronous mode's final marker is the world-aligned clock —
	// the makespan.
	if lastClock != res.Makespan {
		t.Fatalf("final step marker at %v, want makespan %v", lastClock, res.Makespan)
	}
}

func TestCoupledRunRecordsTelemetry(t *testing.T) {
	cfg := fastCfg()
	cfg.Mode = Coupled
	cfg.FluidRanks = 3
	cfg.ParticleRanks = 1
	st, meta, res := recordedRun(t, cfg)

	if meta.Mode != "coupled" || meta.Ranks != 4 {
		t.Fatalf("meta = %+v", meta)
	}
	tr, _, err := st.Trace(meta.Run)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := res.Trace.Render(90, 8), tr.Render(90, 8); want != got {
		t.Fatalf("coupled render differs:\n--- in-memory\n%s--- reloaded\n%s", want, got)
	}
	rows, err := st.Query(meta.Run, telemetry.Query{Rank: telemetry.WorldRank, HasRank: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, r := range rows {
		if r.Kind == telemetry.KindStep {
			steps++
		}
	}
	if steps != cfg.Steps {
		t.Fatalf("%d step markers, want %d", steps, cfg.Steps)
	}
}

func TestDLBRunRecordsMigrations(t *testing.T) {
	cfg := fastCfg()
	cfg.Mode = Coupled
	cfg.FluidRanks = 3
	cfg.ParticleRanks = 1
	cfg.UseDLB = true
	cfg.WorkersPerRank = 2
	cfg.NS.Strategy = tasking.StrategyColoring
	cfg.NS.SGSStrategy = tasking.StrategyColoring
	cfg.FaultPlan = lateRankZero() // ranks 1..3 park in the Split: lends are certain
	st, meta, res := recordedRun(t, cfg)

	if res.DLB.Lends == 0 {
		t.Fatal("forced parks produced no lends")
	}
	rows, err := st.Query(meta.Run, telemetry.Query{Rank: telemetry.WorldRank, HasRank: true})
	if err != nil {
		t.Fatal(err)
	}
	migrations := 0
	for _, r := range rows {
		if r.Kind != telemetry.KindMigration {
			continue
		}
		migrations++
		if r.Aux < 1 {
			t.Fatalf("migration with worker count %d: %+v", r.Aux, r)
		}
		if r.Step < 0 || int(r.Step) >= meta.Ranks {
			t.Fatalf("migration names rank %d of %d: %+v", r.Step, meta.Ranks, r)
		}
	}
	if migrations == 0 {
		t.Fatal("DLB lent cores but no migration rows were recorded")
	}
}

func TestContextSinkIsPickedUp(t *testing.T) {
	st := telemetry.NewMemStore()
	cfg := fastCfg()
	cfg.FluidRanks = 2
	ctx := WithEnv(context.Background(), Env{Telemetry: st})
	if _, err := RunContext(ctx, testMesh(t), cfg); err != nil {
		t.Fatal(err)
	}
	if st.RunCount() != 1 {
		t.Fatalf("context sink recorded %d runs, want 1", st.RunCount())
	}
	// An explicit config sink wins over the context's.
	st2 := telemetry.NewMemStore()
	cfg.Telemetry = st2
	if _, err := RunContext(ctx, testMesh(t), cfg); err != nil {
		t.Fatal(err)
	}
	if st.RunCount() != 1 || st2.RunCount() != 1 {
		t.Fatalf("config sink did not win: ctx store %d runs, cfg store %d", st.RunCount(), st2.RunCount())
	}
}

func TestCancelledRunRecordsNothing(t *testing.T) {
	st := telemetry.NewMemStore()
	cfg := fastCfg()
	cfg.FluidRanks = 2
	cfg.Steps = 50
	cfg.Telemetry = st
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnStep = func(step int) {
		if step == 0 {
			cancel()
		}
	}
	_, err := RunContext(ctx, testMesh(t), cfg)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if st.RunCount() != 0 {
		t.Fatalf("cancelled run recorded %d runs, want 0", st.RunCount())
	}
}

func TestNoSinkRecordsNothing(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 2
	res, err := RunContext(context.Background(), testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("run did not execute")
	}
}
