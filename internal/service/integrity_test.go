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
	"time"

	"repro/internal/checkpoint"
	"repro/internal/la"
	"repro/internal/navierstokes"
	"repro/internal/telemetry"
	"repro/scenario"
)

// permRegistry registers a scenario that deterministically fails with
// the given error on every execution.
func permRegistry(name string, failErr error, runs *atomic.Int32) *scenario.Registry {
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.New(name, "always fails permanently", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			runs.Add(1)
			return nil, fmt.Errorf("step 3: %w", failErr)
		}))
	return reg
}

// TestPermanentFailureFailsFast: an error that retrying cannot fix —
// numerical divergence, Krylov breakdown — must fail the job after
// exactly one attempt with zero backoff sleeps, even with a generous
// retry budget configured.
func TestPermanentFailureFailsFast(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		class string
	}{
		{"diverged", &navierstokes.ErrDiverged{Rank: 1, Step: 3, Phase: "pressure", Residual: 2e9}, "diverged"},
		{"breakdown", la.ErrBreakdown, "breakdown"},
		{"bad-params", scenario.ErrBadParams, "bad-params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs atomic.Int32
			// Backoff far beyond the await deadline: if the classifier
			// ever routes this error into the retry loop, the test hangs
			// in a sleep and times out instead of passing by luck.
			srv := withBackoff(New(Config{Registry: permRegistry("perm", tc.err, &runs),
				MaxRetries: 3}), time.Hour, time.Hour)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Close()
			env := &testEnv{ts: ts, srv: srv}

			start := time.Now()
			id := env.submit(t, `{"scenario":"perm"}`)
			j := env.await(t, id)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("permanent failure took %v; a backoff sleep leaked in", elapsed)
			}
			if j.State != StateFailed {
				t.Fatalf("state = %s (%s)", j.State, j.Error)
			}
			if j.Retries != 0 {
				t.Fatalf("retries = %d, want 0", j.Retries)
			}
			if got := runs.Load(); got != 1 {
				t.Fatalf("executions = %d, want exactly 1", got)
			}

			_, out := env.do(t, "GET", "/stats", "")
			var stats struct {
				PermanentFailures permFailuresJSON `json:"permanentFailures"`
			}
			if err := json.Unmarshal(out, &stats); err != nil {
				t.Fatal(err)
			}
			pf := stats.PermanentFailures
			if pf.Total != 1 || pf.ByClass[tc.class] != 1 {
				t.Fatalf("permanentFailures = %+v, want total 1 with class %q", pf, tc.class)
			}
			if len(pf.Last) != 1 || pf.Last[0].Job != id || pf.Last[0].Class != tc.class {
				t.Fatalf("last failures = %+v", pf.Last)
			}
		})
	}
}

// TestTransientFailureStillRetries guards the classifier's other half:
// an unclassified error keeps the retry behavior the fault-injection
// path depends on.
func TestTransientFailureStillRetries(t *testing.T) {
	var runs atomic.Int32
	srv := withBackoff(New(Config{Registry: flakyRegistry(1, &runs),
		MaxRetries: 2}), time.Millisecond, 2*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}

	id := env.submit(t, `{"scenario":"flaky"}`)
	if j := env.await(t, id); j.State != StateDone || j.Retries != 1 {
		t.Fatalf("job = %+v", j)
	}
	_, out := env.do(t, "GET", "/stats", "")
	var stats struct {
		PermanentFailures permFailuresJSON `json:"permanentFailures"`
	}
	if err := json.Unmarshal(out, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PermanentFailures.Total != 0 {
		t.Fatalf("transient retry counted as permanent: %+v", stats.PermanentFailures)
	}
}

// TestAdminIntegrityEndpoint: the scrub endpoint reports per-file
// verdicts over the server's checkpoint dir and telemetry store, and
// flips ok on corruption or quarantine evidence.
func TestAdminIntegrityEndpoint(t *testing.T) {
	ckptDir := t.TempDir()
	telDir := t.TempDir()
	tstore, err := telemetry.OpenDir(telDir, telemetry.WithChunkRows(4))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: scenario.NewRegistry(), CheckpointDir: ckptDir, Telemetry: tstore})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	env := &testEnv{ts: ts, srv: srv}

	getIntegrity := func() integrityJSON {
		t.Helper()
		code, out := env.do(t, "GET", "/admin/integrity", "")
		if code != http.StatusOK {
			t.Fatalf("GET /admin/integrity = %d: %s", code, out)
		}
		var got integrityJSON
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Empty state: clean bill of health.
	if got := getIntegrity(); !got.OK {
		t.Fatalf("empty state not ok: %+v", got)
	}

	// One good checkpoint, one sealed telemetry run: still ok.
	snap := checkpoint.New("cfg", 1)
	goodPath := filepath.Join(ckptDir, "job-1.ckpt")
	if err := snap.Save(goodPath); err != nil {
		t.Fatal(err)
	}
	w, err := tstore.BeginRun(telemetry.RunMeta{Run: "job-1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.Append(telemetry.Row{Rank: int32(i), Kind: telemetry.KindStep, Start: float64(i), End: float64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := getIntegrity()
	if !got.OK || len(got.Checkpoints) != 1 || len(got.Telemetry) != 1 {
		t.Fatalf("healthy state = %+v", got)
	}

	// A corrupt checkpoint and a flipped telemetry chunk flip ok=false,
	// and a quarantined file keeps it false even after the corrupt
	// original is renamed away.
	badPath := filepath.Join(ckptDir, "job-2.ckpt")
	data := snap.Encode()
	data[15] ^= 0xff
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got = getIntegrity()
	if got.OK {
		t.Fatalf("corrupt checkpoint missed: %+v", got)
	}
	if err := checkpoint.Quarantine(badPath); err != nil {
		t.Fatal(err)
	}
	got = getIntegrity()
	if got.OK {
		t.Fatalf("quarantined file not reported: %+v", got)
	}
	found := false
	for _, v := range got.Checkpoints {
		if v.Status == "quarantined" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no quarantined verdict in %+v", got.Checkpoints)
	}
}
