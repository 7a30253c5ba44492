package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/scenario"
)

// withBackoff replaces srv's retry backoff (250ms to 10s in production)
// with base doubling up to max, before srv runs any job.
func withBackoff(srv *Server, base, max time.Duration) *Server {
	srv.retry.base, srv.retry.cap = base, max
	return srv
}

// flakyRegistry registers a scenario that fails its first failN
// executions and succeeds afterwards.
func flakyRegistry(failN int32, runs *atomic.Int32) *scenario.Registry {
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.New("flaky", "fails then recovers", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			n := runs.Add(1)
			if n <= failN {
				return nil, fmt.Errorf("transient failure %d", n)
			}
			return &scenario.Artifact{Scenario: "flaky", Kind: scenario.KindReport, Report: "recovered\n"}, nil
		}))
	return reg
}

// TestRetryToSuccess: a job whose first two attempts fail transiently
// is retried with backoff and finishes done, reporting its retry count.
func TestRetryToSuccess(t *testing.T) {
	var runs atomic.Int32
	srv := withBackoff(New(Config{Registry: flakyRegistry(2, &runs),
		MaxRetries: 3}), 2*time.Millisecond, 4*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}

	id := env.submit(t, `{"scenario":"flaky"}`)
	j := env.await(t, id)
	if j.State != StateDone {
		t.Fatalf("state = %s (%s)", j.State, j.Error)
	}
	if j.Retries != 2 {
		t.Fatalf("retries = %d, want 2", j.Retries)
	}
	if j.Error != "" {
		t.Fatalf("done job still carries error %q", j.Error)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("executions = %d, want 3", got)
	}
	code, out := env.do(t, "GET", "/jobs/"+id+"/artifact", "")
	if code != http.StatusOK || string(out) != "recovered\n" {
		t.Fatalf("artifact = %d: %q", code, out)
	}
}

// TestRetryExhausted: when every attempt fails, the job fails after
// MaxRetries extra attempts with the final attempt's error.
func TestRetryExhausted(t *testing.T) {
	var runs atomic.Int32
	srv := withBackoff(New(Config{Registry: flakyRegistry(1<<30, &runs),
		MaxRetries: 2}), time.Millisecond, 2*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}

	id := env.submit(t, `{"scenario":"flaky"}`)
	j := env.await(t, id)
	if j.State != StateFailed || !strings.Contains(j.Error, "transient failure 3") {
		t.Fatalf("job = %+v", j)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("executions = %d, want 3 (1 + 2 retries)", got)
	}
}

// TestJobDeadline: a deadlineMs on POST /jobs bounds the whole job; a
// simulation that observes ctx at its next step boundary fails with a
// deadline error rather than hanging or reporting "cancelled".
func TestJobDeadline(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, out := env.do(t, "POST", "/jobs", `{"scenario":"block","deadlineMs":40}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d: %s", code, out)
	}
	var j jobJSON
	if err := json.Unmarshal(out, &j); err != nil {
		t.Fatal(err)
	}
	final := env.await(t, j.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("job = %+v", final)
	}
	// Invalid deadlines are rejected up front.
	if code, _ := env.do(t, "POST", "/jobs", `{"scenario":"echo","deadlineMs":-1}`); code != http.StatusBadRequest {
		t.Fatalf("negative deadline accepted: %d", code)
	}
}

// TestJobDeadlineOverflowRejected: a deadlineMs too large for a
// time.Duration is a 400, not a wrapped negative deadline that would
// skip both the server default and the job timeout; the largest
// representable one is still accepted.
func TestJobDeadlineOverflowRejected(t *testing.T) {
	env := newTestEnv(t, Config{})
	for _, ms := range []string{"1e13", "9.3e12", "1e300"} {
		if code, out := env.do(t, "POST", "/jobs", `{"scenario":"echo","deadlineMs":`+ms+`}`); code != http.StatusBadRequest {
			t.Fatalf("deadlineMs %s: POST = %d: %s", ms, code, out)
		}
	}
	if code, out := env.do(t, "POST", "/jobs", `{"scenario":"echo","deadlineMs":9.2e12}`); code != http.StatusCreated {
		t.Fatalf("deadlineMs 9.2e12: POST = %d: %s", code, out)
	}
}

// TestDrain: after BeginDrain, new submissions get 503 + Retry-After,
// health reports draining, and already-accepted jobs still finish.
func TestDrain(t *testing.T) {
	env := newTestEnv(t, Config{})
	id := env.submit(t, `{"scenario":"gated"}`)
	env.srv.BeginDrain()

	req, _ := http.NewRequest("POST", env.ts.URL+"/jobs", strings.NewReader(`{"scenario":"echo"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	code, out := env.do(t, "GET", "/healthz", "")
	var h healthJSON
	if code != http.StatusOK || json.Unmarshal(out, &h) != nil {
		t.Fatalf("healthz = %d: %s", code, out)
	}
	if h.OK || h.Status != "draining" {
		t.Fatalf("healthz = %+v, want draining", h)
	}
	// The in-flight job is not a casualty of the drain.
	close(env.gate)
	if j := env.await(t, id); j.State != StateDone {
		t.Fatalf("pre-drain job = %s (%s)", j.State, j.Error)
	}
}

// TestHealthzDegradedWhileRetrying: a job in backoff flips /healthz to
// degraded; recovery flips it back.
func TestHealthzDegradedWhileRetrying(t *testing.T) {
	var runs atomic.Int32
	srv := withBackoff(New(Config{Registry: flakyRegistry(1, &runs),
		MaxRetries: 2}), 300*time.Millisecond, 300*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}

	id := env.submit(t, `{"scenario":"flaky"}`)
	health := func() healthJSON {
		_, out := env.do(t, "GET", "/healthz", "")
		var h healthJSON
		if err := json.Unmarshal(out, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	deadline := time.Now().Add(5 * time.Second)
	for health().Status != "degraded" {
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported degraded during backoff")
		}
		time.Sleep(time.Millisecond)
	}
	if j := env.await(t, id); j.State != StateDone {
		t.Fatalf("job = %s (%s)", j.State, j.Error)
	}
	if h := health(); h.Status != "ok" || h.Retrying != 0 {
		t.Fatalf("healthz after recovery = %+v", h)
	}
}

// TestRecoverResubmitsManifests: a server dying with accepted jobs
// leaves manifests in the checkpoint dir; a new server over the same
// dir resubmits them under their original IDs, finishes them, cleans
// the manifests up, and never reuses a recovered ID.
func TestRecoverResubmitsManifests(t *testing.T) {
	dir := t.TempDir()

	// Server A accepts a job that never finishes (simulated crash: we
	// simply abandon A without letting the job complete).
	hang := scenario.NewRegistry()
	hang.MustRegister(scenario.New("work", "hangs", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}))
	a := New(Config{Registry: hang, CheckpointDir: dir})
	tsA := httptest.NewServer(a.Handler())
	envA := &testEnv{ts: tsA, srv: a}
	id := envA.submit(t, `{"scenario":"work","options":{"steps":9}}`)
	tsA.Close() // the process "crashes": no cleanup, manifest stays
	// A's hung job is only released once the test is over: cancelling it
	// here would let its terminal cleanup delete the manifest under B.
	defer a.Close()

	if _, err := os.Stat(filepath.Join(dir, id+".job.json")); err != nil {
		t.Fatalf("manifest missing after crash: %v", err)
	}

	// Server B over the same dir: the same scenario now completes.
	done := scenario.NewRegistry()
	done.MustRegister(scenario.New("work", "completes", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return &scenario.Artifact{Scenario: "work", Kind: scenario.KindReport,
				Report: fmt.Sprintf("steps=%d\n", p.Steps)}, nil
		}))
	b := New(Config{Registry: done, CheckpointDir: dir})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer b.Close()
	envB := &testEnv{ts: tsB, srv: b}

	ids := b.Recover()
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("recovered %v, want [%s]", ids, id)
	}
	j := envB.await(t, id)
	if j.State != StateDone || !j.Recovered {
		t.Fatalf("recovered job = %+v", j)
	}
	// Original options traveled through the manifest.
	code, out := envB.do(t, "GET", "/jobs/"+id+"/artifact", "")
	if code != http.StatusOK || string(out) != "steps=9\n" {
		t.Fatalf("artifact = %d: %q", code, out)
	}
	// Terminal cleanup removed the manifest; a restart recovers nothing.
	if _, err := os.Stat(filepath.Join(dir, id+".job.json")); !os.IsNotExist(err) {
		t.Fatalf("manifest survived completion: %v", err)
	}
	if again := b.Recover(); len(again) != 0 {
		t.Fatalf("second recover resubmitted %v", again)
	}
	// Fresh IDs continue past the recovered one.
	next := envB.submit(t, `{"scenario":"work"}`)
	if next == id {
		t.Fatalf("recovered ID %s reused", id)
	}
	envB.await(t, next)
}

// TestTerminalStateNeverShowsManifest: once a job's terminal state can
// be read, its manifest is gone, so a crash after a client saw the job
// end cannot resubmit it. The server's permanent-failure log line is
// written after the state is published and before run returns; the
// logger checks the state and the manifest right there, with no timing
// involved.
func TestTerminalStateNeverShowsManifest(t *testing.T) {
	dir := t.TempDir()
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.New("bad", "fails permanently", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return nil, fmt.Errorf("%w: rejected by the run", scenario.ErrBadParams)
		}))
	var srv *Server
	var seen atomic.Int32
	logf := func(format string, args ...any) {
		if !strings.Contains(format, "permanent failure") {
			return
		}
		id := args[0].(string)
		srv.mu.Lock()
		job := srv.jobs[id]
		srv.mu.Unlock()
		seen.Add(1)
		if state := job.snapshot(false).State; state == StateFailed {
			if _, err := os.Stat(srv.manifestPath(id)); err == nil {
				t.Errorf("job %s reads %s while its manifest still exists", id, state)
			}
		}
	}
	srv = New(Config{Registry: reg, CheckpointDir: dir, Logf: logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}
	for i := 0; i < 3; i++ {
		id := env.submit(t, `{"scenario":"bad"}`)
		if j := env.await(t, id); j.State != StateFailed {
			t.Fatalf("job %s = %s, want failed", id, j.State)
		}
	}
	if seen.Load() != 3 {
		t.Fatalf("%d permanent-failure log lines, want 3", seen.Load())
	}
}

// TestStalledSimulationRetriesToSuccess is the end-to-end robustness
// path: a real coupled simulation whose first attempt drops a message
// (deterministic fault injection) fails with a typed rank stall within
// the watchdog deadline, and the service retries it to success.
func TestStalledSimulationRetriesToSuccess(t *testing.T) {
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 1
	cfg.NTheta = 8
	cfg.NAxial = 4
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int32
	var stallErr atomic.Value
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.New("sim", "faulted once", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			rc := coupling.DefaultRunConfig()
			rc.FluidRanks = 4
			rc.Steps = 3
			rc.NumParticles = 100
			rc.NS.Strategy = tasking.StrategySerial
			rc.NS.SGSStrategy = tasking.StrategySerial
			rc.RanksPerNode = 4
			if attempts.Add(1) == 1 {
				rc.FaultPlan = &simmpi.FaultPlan{Rules: []simmpi.FaultRule{
					{Rank: 1, Op: simmpi.FaultRecv, Tag: -1, Step: 1, Nth: 1, Action: simmpi.FaultDrop},
				}}
			}
			// The watchdog arrives through the context the server built.
			res, err := coupling.RunContext(ctx, m, rc)
			if err != nil {
				stallErr.Store(err)
				return nil, err
			}
			return &scenario.Artifact{Scenario: "sim", Kind: scenario.KindReport,
				Report: fmt.Sprintf("makespan=%.6f\n", res.Makespan)}, nil
		}))
	srv := withBackoff(New(Config{Registry: reg, MaxRetries: 2,
		Watchdog: 500 * time.Millisecond}), 2*time.Millisecond, 4*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}

	id := env.submit(t, `{"scenario":"sim"}`)
	j := env.await(t, id)
	if j.State != StateDone {
		t.Fatalf("job = %s (%s)", j.State, j.Error)
	}
	if j.Retries != 1 || attempts.Load() != 2 {
		t.Fatalf("retries = %d, attempts = %d, want 1 and 2", j.Retries, attempts.Load())
	}
	err, _ = stallErr.Load().(error)
	var stall *simmpi.ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("first attempt error = %v, want *simmpi.ErrRankStalled", err)
	}
}
