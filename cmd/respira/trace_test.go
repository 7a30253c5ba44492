package main

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/scenario"
)

// An unknown -scenario must fail loudly and list the registry (the
// fig contract, extended here to trace).
func TestUnknownScenarioErrors(t *testing.T) {
	_, _, err := runCLI(t, "trace", "-scenario", "nosuch")
	if err == nil {
		t.Fatal("unknown -scenario must error")
	}
	for _, want := range []string{`"nosuch"`, "fig2", "quickstart"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q should mention %q", err, want)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	if _, _, err := runCLI(t, "trace", "-store", "x", "-url", "http://h"); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-store with -url = %v", err)
	}
	if _, _, err := runCLI(t, "trace", "-list"); err == nil ||
		!strings.Contains(err.Error(), "need a source") {
		t.Fatalf("bare -list = %v", err)
	}
	if _, _, err := runCLI(t, "trace", "-run", "job-1"); err == nil ||
		!strings.Contains(err.Error(), "need a source") {
		t.Fatalf("bare -run = %v", err)
	}
	if _, _, err := runCLI(t, "trace", "-url", "http://h", "-scenario", "fig2"); err == nil ||
		!strings.Contains(err.Error(), "-url") {
		t.Fatalf("-url with -scenario = %v", err)
	}
	if _, _, err := runCLI(t, "trace", "stray"); err == nil {
		t.Fatal("positional arguments must error")
	}
}

// timelineRows returns the bar of every rank row of a rendered timeline.
func timelineRows(out string) []string {
	var bars []string
	for _, m := range regexp.MustCompile(`(?m)^ *\d+ \|(.*)\|$`).FindAllStringSubmatch(out, -1) {
		bars = append(bars, m[1])
	}
	return bars
}

// Each timeline flag overrides only its own dimension on a fresh run;
// the other keeps the scenario's (quickstart renders 90x8).
func TestWidthAndRowsBindSeparately(t *testing.T) {
	out, _, err := runCLI(t, "trace", "-scenario", "quickstart", "-ranks", "10", "-steps", "1", "-particles", "100", "-width", "40")
	if err != nil {
		t.Fatal(err)
	}
	bars := timelineRows(out)
	if len(bars) == 0 || len(bars) > 8 {
		t.Fatalf("-width alone: %d rank rows of 10 ranks, want quickstart's cap of 8:\n%s", len(bars), out)
	}
	for _, b := range bars {
		if len(b) != 40 {
			t.Fatalf("-width 40 rendered a %d-column row %q", len(b), b)
		}
	}
	out, _, err = runCLI(t, "trace", "-scenario", "quickstart", "-steps", "1", "-particles", "100", "-rows", "2")
	if err != nil {
		t.Fatal(err)
	}
	bars = timelineRows(out)
	if len(bars) != 2 {
		t.Fatalf("-rows 2 rendered %d rank rows:\n%s", len(bars), out)
	}
	for _, b := range bars {
		if len(b) != 90 {
			t.Fatalf("-rows alone rendered a %d-column row, want quickstart's 90", len(b))
		}
	}
}

// A bad override is the POST /jobs rejection, not a silent default.
func TestBadOverrideIsTyped(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "quickstart", "-ranks", "0"},
		{"-scenario", "quickstart", "-width", "0"},
		{"-store", t.TempDir(), "-rows", "-1"},
	} {
		if _, _, err := runCLI(t, append([]string{"trace"}, args...)...); !errors.Is(err, scenario.ErrBadParams) {
			t.Errorf("%v: err = %v, want ErrBadParams", args, err)
		}
	}
}

// The full local loop: run a scenario fresh while recording into a
// store, then list and re-render the persisted runs from that store.
func TestRecordListAndRenderStoredRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tstore")
	fresh, errb, err := runCLI(t, "trace",
		"-scenario", "fig2", "-store", dir,
		"-ranks", "4", "-steps", "1", "-particles", "200", "-gens", "2",
		"-width", "60", "-rows", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fresh, "timeline:") {
		t.Fatalf("fresh render missing timeline:\n%s", fresh)
	}
	if !strings.Contains(errb, "recorded") {
		t.Fatalf("stderr should note the recorded runs: %q", errb)
	}

	list, _, err := runCLI(t, "trace", "-store", dir, "-list")
	if err != nil {
		t.Fatal(err)
	}
	// fig2 calibrates, so one probe run plus the measured run.
	if !strings.Contains(list, "run-000001") || !strings.Contains(list, "run-000002") {
		t.Fatalf("listing missing recorded runs:\n%s", list)
	}
	if !strings.Contains(list, "fig2") || !strings.Contains(list, "complete") {
		t.Fatalf("listing missing scenario/state columns:\n%s", list)
	}

	// Default render picks the newest run; -run selects explicitly.
	newest, _, err := runCLI(t, "trace", "-store", dir, "-width", "60", "-rows", "4")
	if err != nil {
		t.Fatal(err)
	}
	picked, _, err := runCLI(t, "trace", "-store", dir, "-run", "run-000002", "-width", "60", "-rows", "4")
	if err != nil {
		t.Fatal(err)
	}
	if newest != picked {
		t.Fatalf("default render is not the newest run:\n--- default\n%s--- run-000002\n%s", newest, picked)
	}
	for _, want := range []string{"run run-000002", "timeline:", "Phase", "L_n"} {
		if !strings.Contains(picked, want) {
			t.Fatalf("stored render missing %q:\n%s", want, picked)
		}
	}

	if _, _, err := runCLI(t, "trace", "-store", dir, "-run", "nope"); err == nil {
		t.Fatal("unknown -run must error")
	}
}

// Remote mode renders the same bytes the store mode does, via a live
// server's /telemetry endpoints.
func TestRemoteRenderMatchesStored(t *testing.T) {
	st := telemetry.NewMemStore()
	w, err := st.BeginRun(telemetry.RunMeta{Run: "job-1", Mode: "synchronous", Ranks: 2, Steps: 1, Makespan: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(
		telemetry.Row{Rank: 0, Kind: telemetry.KindPhase, Phase: trace.PhaseAssembly, Start: 0, End: 2},
		telemetry.Row{Rank: 1, Kind: telemetry.KindPhase, Phase: trace.PhaseParticles, Start: 0, End: 1},
	)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Registry: scenario.NewRegistry(), Telemetry: st})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	remote, _, err := runCLI(t, "trace", "-url", ts.URL, "-run", "job-1", "-width", "60", "-rows", "4")
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	tr, meta, err := st.Trace("job-1")
	if err != nil {
		t.Fatal(err)
	}
	render(&local, tr, meta, 60, 4)
	if remote != local.String() {
		t.Fatalf("remote render differs from local:\n--- remote\n%s--- local\n%s", remote, local.String())
	}

	list, _, err := runCLI(t, "trace", "-url", ts.URL, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list, "job-1") {
		t.Fatalf("remote listing missing job-1:\n%s", list)
	}
	// Server error bodies surface in the CLI error.
	if _, _, err := runCLI(t, "trace", "-url", ts.URL, "-run", "nope"); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown remote run = %v", err)
	}
}
