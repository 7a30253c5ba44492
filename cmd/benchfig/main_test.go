package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/scenario"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestUnknownExpErrors pins the satellite fix: an unrecognized -exp must
// fail loudly and list every registered scenario (the seed CLI silently
// did nothing).
func TestUnknownExpErrors(t *testing.T) {
	_, _, err := runCLI(t, "-exp", "nosuch")
	if err == nil {
		t.Fatal("unknown -exp must error")
	}
	msg := err.Error()
	for _, want := range []string{`"nosuch"`, "table1", "fig11", "quickstart", "coupled_dlb"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q should mention %q", msg, want)
		}
	}
	// A typo inside a multi-name selection fails the whole run too.
	if _, _, err := runCLI(t, "-exp", "fig8,nope"); err == nil {
		t.Fatal("unknown name in a list must error")
	}
}

// TestListEnumeratesRegistry: 10 paper experiments, 4 example workloads and
// the 2 sweep scenarios.
func TestListEnumeratesRegistry(t *testing.T) {
	out, _, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	names := scenario.Default.Names()
	if len(names) < 15 {
		t.Fatalf("registry holds %d scenarios, want >= 15", len(names))
	}
	for _, n := range names {
		if !strings.Contains(out, n) {
			t.Fatalf("-list output missing %q:\n%s", n, out)
		}
	}
}

// TestPaperSuiteSelection: -exp all is exactly the pre-registry benchfig
// suite, in its historical order.
func TestPaperSuiteSelection(t *testing.T) {
	scs, err := selectScenarios(scenario.Default, "all", "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"ipc", "ablation"}
	if len(scs) != len(want) {
		t.Fatalf("all = %d scenarios, want %d", len(scs), len(want))
	}
	for i, s := range scs {
		if s.Name() != want[i] {
			t.Fatalf("all[%d] = %s, want %s", i, s.Name(), want[i])
		}
	}
	// Tag selection reaches the examples without running them.
	ex, err := selectScenarios(scenario.Default, "all", "example")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 4 {
		t.Fatalf("tag example = %d scenarios, want 4", len(ex))
	}
	if _, err := selectScenarios(scenario.Default, "all", "nosuchtag"); err == nil {
		t.Fatal("unknown tag must error")
	}
}

// TestFig8TextGolden pins that the registry-driven CLI reproduces the
// pre-refactor text output byte for byte (fig8 is fully modeled, hence
// deterministic).
func TestFig8TextGolden(t *testing.T) {
	out, _, err := runCLI(t, "-exp", "fig8")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig8.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("fig8 text drifted from pre-refactor output:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestJSONOutputRoundTrips: -format json emits an array of artifacts
// that encoding/json accepts back.
func TestJSONOutputRoundTrips(t *testing.T) {
	out, _, err := runCLI(t, "-exp", "ipc,fig9", "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	var arts []scenario.Artifact
	if err := json.Unmarshal([]byte(out), &arts); err != nil {
		t.Fatalf("json output invalid: %v\n%s", err, out)
	}
	if len(arts) != 2 || arts[0].Scenario != repro.ScenarioIPC || arts[1].Scenario != repro.ScenarioFigure9 {
		t.Fatalf("artifacts %+v", arts)
	}
	if arts[0].Kind != scenario.KindReport || arts[1].Kind != scenario.KindFigure {
		t.Fatal("artifact kinds lost in transit")
	}
}

// TestCSVOutput: uniform header plus per-point records.
func TestCSVOutput(t *testing.T) {
	out, _, err := runCLI(t, "-exp", "fig10", "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != strings.Join(scenario.CSVHeader, ",") {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 11 { // 2 series x 5 configs
		t.Fatalf("%d csv lines, want 11:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "fig10,figure,Figure 10,") {
		t.Fatalf("first record %q", lines[1])
	}
}

// TestPlatformRestriction: the legacy -platform flag still narrows the
// per-platform figures.
func TestPlatformRestriction(t *testing.T) {
	out, _, err := runCLI(t, "-exp", "fig6", "-platform", "Thunder")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "MareNostrum4") || !strings.Contains(out, "Thunder") {
		t.Fatalf("platform restriction failed:\n%s", out)
	}
	if _, _, err := runCLI(t, "-exp", "fig6", "-platform", "NoSuchMachine"); err == nil {
		t.Fatal("unknown platform must error")
	}
}

// TestParallelKeepsOrder: with -parallel the text output order is still
// the selection order.
func TestParallelKeepsOrder(t *testing.T) {
	out, _, err := runCLI(t, "-exp", "fig11,fig8,ipc", "-parallel", "3")
	if err != nil {
		t.Fatal(err)
	}
	i11 := strings.Index(out, "Figure 11")
	i8 := strings.Index(out, "Figure 8")
	iIPC := strings.Index(out, "Assembly-phase IPC")
	if i11 < 0 || i8 < 0 || iIPC < 0 || !(i11 < i8 && i8 < iIPC) {
		t.Fatalf("output order broken: fig11@%d fig8@%d ipc@%d", i11, i8, iIPC)
	}
}

// TestBadFormatAndArgs: flag validation errors, before any scenario runs.
func TestBadFormatAndArgs(t *testing.T) {
	// table1 takes seconds; a format typo must fail fast instead of
	// running it first and discarding the results.
	start := time.Now()
	if _, _, err := runCLI(t, "-exp", "table1", "-format", "yaml"); err == nil {
		t.Fatal("unknown format must error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("format validation ran the scenarios first (%v)", d)
	}
	if _, _, err := runCLI(t, "table1"); err == nil {
		t.Fatal("positional arguments must error")
	}
}

// TestCLIMatchesExampleWrapper: `benchfig -exp quickstart` and the
// examples/quickstart main run the same scenario with the same defaults
// — including the scenario's own 90x8 timeline (CLI flag defaults must
// not leak in).
func TestCLIMatchesExampleWrapper(t *testing.T) {
	out, _, err := runCLI(t, "-exp", "quickstart")
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Default.Get(repro.ScenarioQuickstart)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(context.Background(), scenario.Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock lines differ run to run; compare everything else.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "wall=") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(out) != strip(a.Text())+"\n" { // CLI prints with a trailing newline
		t.Fatalf("CLI and wrapper diverged:\n--- cli ---\n%s--- wrapper ---\n%s", out, a.Text())
	}
}

// TestProgressOutput: -progress reports start and finish per scenario on
// stderr, never on stdout.
func TestProgressOutput(t *testing.T) {
	out, errb, err := runCLI(t, "-exp", "ipc", "-progress")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb, "[1/1] ipc ...") || !strings.Contains(errb, "done in") {
		t.Fatalf("progress missing on stderr: %q", errb)
	}
	if strings.Contains(out, "[1/1]") {
		t.Fatal("progress leaked to stdout")
	}
}
