package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/coupling"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/scenario"
)

// newTelemetryEnv serves a registry whose "sim" scenario records two
// runs through the context sink (a calibration probe plus a measured
// run, like the real calibrated scenarios) and whose "plain" scenario
// records nothing.
func newTelemetryEnv(t *testing.T) (*testEnv, *telemetry.Store) {
	t.Helper()
	st := telemetry.NewMemStore()
	env := &testEnv{runs: &atomic.Int32{}, gate: make(chan struct{})}
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.New("sim", "records two runs", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			sink := coupling.EnvFrom(ctx).Telemetry
			if sink == nil {
				return nil, fmt.Errorf("no telemetry sink on the job context")
			}
			for i := 0; i < 2; i++ {
				w, err := sink.BeginRun(telemetry.RunMeta{Mode: "synchronous", Ranks: 2, Steps: 1, Makespan: 4})
				if err != nil {
					return nil, err
				}
				w.Append(
					telemetry.Row{Rank: telemetry.WorldRank, Kind: telemetry.KindStep, Start: 4, End: 4},
					telemetry.Row{Rank: 0, Kind: telemetry.KindPhase, Phase: trace.PhaseAssembly, Start: 0, End: 3},
					telemetry.Row{Rank: 0, Kind: telemetry.KindPhase, Phase: trace.PhaseParticles, Start: 3, End: 4},
					telemetry.Row{Rank: 1, Kind: telemetry.KindPhase, Phase: trace.PhaseAssembly, Start: 0, End: 2},
				)
				if err := w.Close(); err != nil {
					return nil, err
				}
			}
			return &scenario.Artifact{Scenario: "sim", Kind: scenario.KindReport, Report: "ran\n"}, nil
		}))
	reg.MustRegister(scenario.New("plain", "records nothing", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return &scenario.Artifact{Scenario: "plain", Kind: scenario.KindReport, Report: "ok\n"}, nil
		}))
	srv := New(Config{Registry: reg, Telemetry: st})
	env.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		env.ts.Close()
	})
	return env, st
}

func getAs[T any](t *testing.T, env *testEnv, path string) T {
	t.Helper()
	code, out := env.do(t, "GET", path, "")
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, code, out)
	}
	var v T
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return v
}

func TestJobTelemetryEndpoints(t *testing.T) {
	env, _ := newTelemetryEnv(t)
	id := env.submit(t, `{"scenario": "sim"}`)
	if j := env.await(t, id); j.State != StateDone {
		t.Fatalf("job = %+v", j)
	}

	// /telemetry/runs lists both recorded runs, newest first, stamped
	// with the owning job and scenario.
	runs := getAs[[]telemetry.RunMeta](t, env, "/telemetry/runs")
	if len(runs) != 2 {
		t.Fatalf("%d runs, want 2", len(runs))
	}
	if runs[0].Run != id+".2" || runs[1].Run != id {
		t.Fatalf("run order: %q, %q (want %q.2 then %q)", runs[0].Run, runs[1].Run, id, id)
	}
	for _, m := range runs {
		if m.Job != id || m.Scenario != "sim" || !m.Complete {
			t.Fatalf("run meta = %+v", m)
		}
	}

	// /jobs/{id}/trace serves the measured (last) run.
	tw := getAs[TraceWire](t, env, "/jobs/"+id+"/trace")
	if tw.Meta.Run != id+".2" {
		t.Fatalf("trace serves run %q, want %q.2", tw.Meta.Run, id)
	}
	if len(tw.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tw.Rows))
	}
	// Wire rows reconstruct the stored rows exactly.
	r0 := tw.Rows[1].Row()
	if r0.Kind != telemetry.KindPhase || r0.Phase != trace.PhaseAssembly || r0.End != 3 {
		t.Fatalf("reconstructed row = %+v", r0)
	}

	// Rank and window filters.
	if got := getAs[TraceWire](t, env, "/jobs/"+id+"/trace?rank=0"); len(got.Rows) != 2 {
		t.Fatalf("rank filter: %d rows, want 2", len(got.Rows))
	}
	if got := getAs[TraceWire](t, env, "/jobs/"+id+"/trace?from=3.5&rank=1"); len(got.Rows) != 0 {
		t.Fatalf("window filter: %d rows, want 0", len(got.Rows))
	}
	if code, _ := env.do(t, "GET", "/jobs/"+id+"/trace?rank=zero", ""); code != http.StatusBadRequest {
		t.Fatalf("bad rank = %d, want 400", code)
	}
	if code, _ := env.do(t, "GET", "/jobs/"+id+"/trace?from=-1", ""); code != http.StatusBadRequest {
		t.Fatalf("negative from = %d, want 400", code)
	}
	// NaN compares false with everything, so it once answered 200 with
	// no rows.
	for _, path := range []string{
		"/jobs/" + id + "/trace?from=NaN", "/jobs/" + id + "/trace?to=Inf",
		"/telemetry/runs/" + id + "?from=NaN", "/telemetry/runs/" + id + "?to=NaN",
	} {
		if code, _ := env.do(t, "GET", path, ""); code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", path, code)
		}
	}

	// The first run carries the scheduler admission row.
	first := getAs[TraceWire](t, env, "/telemetry/runs/"+id)
	if len(first.Rows) != 5 || first.Rows[0].Kind != telemetry.KindQueueWait.String() {
		t.Fatalf("first run rows = %+v", first.Rows)
	}

	// /jobs/{id}/phases reduces the measured run to Ln per phase.
	pw := getAs[PhasesWire](t, env, "/jobs/"+id+"/phases")
	if pw.Run != id+".2" || pw.Ranks != 2 || pw.Makespan != 4 {
		t.Fatalf("phases = %+v", pw)
	}
	found := map[string]float64{}
	for _, p := range pw.Phases {
		found[p.Phase] = p.Ln
	}
	// Assembly: times {3, 2} -> Ln = avg/max = 2.5/3.
	if ln, ok := found["Matrix assembly"]; !ok || ln < 0.82 || ln > 0.84 {
		t.Fatalf("assembly Ln = %v (found %v)", ln, found)
	}
	// Particles ran on one of two ranks: Ln = 0.5.
	if ln, ok := found["Particles"]; !ok || ln != 0.5 {
		t.Fatalf("particles Ln = %v", ln)
	}
	if _, ok := found["Solver1"]; ok {
		t.Fatal("phase that never ran is listed")
	}

	if code, _ := env.do(t, "GET", "/telemetry/runs/nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown run = %d, want 404", code)
	}
}

func TestJobWithoutRunsReports404(t *testing.T) {
	env, _ := newTelemetryEnv(t)
	id := env.submit(t, `{"scenario": "plain"}`)
	env.await(t, id)
	code, out := env.do(t, "GET", "/jobs/"+id+"/trace", "")
	if code != http.StatusNotFound {
		t.Fatalf("trace of run-less job = %d: %s", code, out)
	}
	if code, _ := env.do(t, "GET", "/jobs/"+id+"/phases", ""); code != http.StatusNotFound {
		t.Fatalf("phases of run-less job = %d", code)
	}
	if code, _ := env.do(t, "GET", "/jobs/nope/trace", ""); code != http.StatusNotFound {
		t.Fatalf("trace of unknown job = %d", code)
	}
}

func TestTelemetryDisabledEndpoints404(t *testing.T) {
	env := newTestEnv(t, Config{}) // no store configured
	id := env.submit(t, `{"scenario": "echo"}`)
	env.await(t, id)
	for _, path := range []string{"/telemetry/runs", "/jobs/" + id + "/trace", "/jobs/" + id + "/phases"} {
		if code, _ := env.do(t, "GET", path, ""); code != http.StatusNotFound {
			t.Fatalf("GET %s without a store = %d, want 404", path, code)
		}
	}
	// healthz reports telemetry off but stays healthy.
	h := getAs[healthJSON](t, env, "/healthz")
	if !h.OK || h.Telemetry {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestHealthzAndStats(t *testing.T) {
	env, _ := newTelemetryEnv(t)
	id := env.submit(t, `{"scenario": "sim"}`)
	env.await(t, id)
	// An identical resubmission is served from the artifact cache.
	id2 := env.submit(t, `{"scenario": "sim"}`)
	if j := env.await(t, id2); j.State != StateDone {
		t.Fatalf("cached job = %+v", j)
	}

	h := getAs[healthJSON](t, env, "/healthz")
	if !h.OK || h.Jobs != 2 || !h.Telemetry {
		t.Fatalf("healthz = %+v", h)
	}
	st := getAs[statsJSON](t, env, "/stats")
	if st.Scheduler.Capacity <= 0 || st.Scheduler.Running != 0 {
		t.Fatalf("scheduler stats = %+v", st.Scheduler)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.Jobs["done"] != 2 {
		t.Fatalf("job counts = %v", st.Jobs)
	}
	if st.Runs != 2 {
		t.Fatalf("runs = %d, want 2 (the cached job recorded nothing)", st.Runs)
	}
}

// TestTelemetryRetention: with TelemetryMaxRuns set, finishing a job
// prunes the oldest runs past the bound — except runs whose owning job
// still has checkpoint files on disk, which are pinned until the
// checkpoints go away.
func TestTelemetryRetention(t *testing.T) {
	st := telemetry.NewMemStore()
	ckptDir := t.TempDir()
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.New("rec", "records one run", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			sink := coupling.EnvFrom(ctx).Telemetry
			if sink == nil {
				return nil, fmt.Errorf("no telemetry sink on the job context")
			}
			w, err := sink.BeginRun(telemetry.RunMeta{Mode: "synchronous", Ranks: 1, Steps: 1})
			if err != nil {
				return nil, err
			}
			w.Append(telemetry.Row{Rank: 0, Kind: telemetry.KindPhase, Phase: trace.PhaseAssembly, Start: 0, End: 1})
			if err := w.Close(); err != nil {
				return nil, err
			}
			return &scenario.Artifact{Scenario: "rec", Kind: scenario.KindReport, Report: "ok\n"}, nil
		}))
	srv := New(Config{Registry: reg, Telemetry: st, TelemetryMaxRuns: 2, CheckpointDir: ckptDir})
	env := &testEnv{ts: httptest.NewServer(srv.Handler()), srv: srv}
	defer env.ts.Close()
	defer srv.Close()

	submit := func(i int) string {
		t.Helper()
		id := env.submit(t, fmt.Sprintf(`{"scenario": "rec", "options": {"steps": %d}}`, i))
		if j := env.await(t, id); j.State != StateDone {
			t.Fatalf("job %s = %+v", id, j)
		}
		return id
	}
	haveRuns := func(want ...string) func() bool {
		return func() bool {
			got := map[string]bool{}
			for _, m := range st.Runs() {
				got[m.Run] = true
			}
			if len(got) != len(want) {
				return false
			}
			for _, r := range want {
				if !got[r] {
					return false
				}
			}
			return true
		}
	}

	a := submit(1)
	b := submit(2)
	c := submit(3)
	// Pruning runs just after the job's terminal state is published, so
	// poll: three runs against a bound of two drops the oldest.
	waitFor(t, "oldest run to be pruned", haveRuns(b, c))
	if _, err := st.Query(a, telemetry.Query{}); err == nil {
		t.Fatalf("pruned run %s still queryable", a)
	}

	// A live checkpoint pins its job's runs: b looks interrupted-but-
	// resumable now, so retention takes the next-oldest instead.
	ckpt := filepath.Join(ckptDir, b+".ckpt")
	if err := os.WriteFile(ckpt, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := submit(4)
	waitFor(t, "unpinned run to be pruned around the pin", haveRuns(b, d))

	// Once the checkpoint is gone, b is ordinary again and ages out.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	e := submit(5)
	waitFor(t, "formerly pinned run to age out", haveRuns(d, e))
}

func TestJobListFilters(t *testing.T) {
	env, _ := newTelemetryEnv(t)
	var ids []string
	for i := 0; i < 3; i++ {
		id := env.submit(t, fmt.Sprintf(`{"scenario": "plain", "options": {"steps": %d}}`, i+1))
		env.await(t, id)
		ids = append(ids, id)
	}

	// Legacy shape: no parameters, full list oldest first.
	all := getAs[[]jobJSON](t, env, "/jobs")
	if len(all) != 3 || all[0].ID != ids[0] {
		t.Fatalf("bare listing = %+v", all)
	}
	// limit flips to newest first and truncates.
	top := getAs[[]jobJSON](t, env, "/jobs?limit=2")
	if len(top) != 2 || top[0].ID != ids[2] || top[1].ID != ids[1] {
		t.Fatalf("limited listing = %+v", top)
	}
	if done := getAs[[]jobJSON](t, env, "/jobs?state=done"); len(done) != 3 {
		t.Fatalf("state filter found %d done jobs", len(done))
	}
	if failed := getAs[[]jobJSON](t, env, "/jobs?state=failed"); len(failed) != 0 {
		t.Fatalf("state filter found %d failed jobs", len(failed))
	}
	if combo := getAs[[]jobJSON](t, env, "/jobs?state=done&limit=1"); len(combo) != 1 || combo[0].ID != ids[2] {
		t.Fatalf("combined filter = %+v", combo)
	}
	if code, _ := env.do(t, "GET", "/jobs?state=bogus", ""); code != http.StatusBadRequest {
		t.Fatalf("bad state = %d, want 400", code)
	}
	if code, _ := env.do(t, "GET", "/jobs?limit=-3", ""); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
}
