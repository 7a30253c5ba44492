package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain turns the test binary into the benchmark when the parent
// re-executes it for a leg, so the tests drive the real child protocol.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

var (
	nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitSyntax = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the program's own tables and to
// the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var onDisk, generated map[string]any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(buildManifest())
	if err := json.Unmarshal(want, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Errorf("BENCHMARK.json differs from `benchmark manifest`; regenerate it")
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := onDisk[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(onDisk) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(onDisk))
	}

	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameSyntax.MatchString(n) {
			t.Errorf("name %q breaks the name syntax", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		if !unitSyntax.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range m.PerLayer {
		name(d.Name)
		if !unitSyntax.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if !strings.Contains(d.Name, ".") {
			t.Errorf("per-layer metric %s is not layer.metric", d.Name)
		}
	}
}

// TestQuartiles pins the quartile rule to the values Python's
// statistics.quantiles(v, n=4) gives.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 30, 20}, 10, 20, 30},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 80); got != 4 {
		t.Errorf("p80 = %g, want 4", got)
	}
}

// TestSelfTimes checks the span-tree arithmetic: self time is the span
// minus its direct children, at every depth.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Kind: spanStep, Parent: -1, Start: 0, End: 100},
		{Kind: spanSolverStep, Parent: 0, Start: 5, End: 65},
		{Kind: spanMPIWait, Parent: 1, Start: 10, End: 20},
		{Kind: spanMPIWait, Parent: 1, Start: 30, End: 45},
		{Kind: spanTrackerStep, Parent: 0, Start: 70, End: 90},
	}
	want := []int64{20, 35, 10, 15, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var total int64
	for _, s := range selfTimes(spans) {
		total += s
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}

	rec := newRankSpans(time.Now(), 4)
	rec.begin(spanStep)
	rec.begin(spanSolverStep)
	rec.end()
	rec.end()
	if len(rec.spans) != 2 || rec.spans[1].Parent != 0 || rec.spans[0].Parent != -1 || len(rec.open) != 0 {
		t.Errorf("recorder nesting wrong: %+v", rec.spans)
	}
	var none *rankSpans
	none.begin(spanStep) // the untraced driver run: must be a no-op
	none.end()
}

func summaryOf(better string, bound float64, vals ...float64) metricSummary {
	return metricSummary{"s", better, bound, summarize(vals)}
}

func TestJudge(t *testing.T) {
	steady := func(better string, v float64) metricSummary {
		return summaryOf(better, 0.10, v*0.995, v, v*1.005, v)
	}
	for _, c := range []struct {
		name     string
		old, new metricSummary
		want     string
	}{
		{"lower metric 20% up", steady(lower, 1), steady(lower, 1.2), verdictWorse},
		{"lower metric 20% down", steady(lower, 1), steady(lower, 0.8), verdictBetter},
		{"higher metric 20% down", steady(higher, 1), steady(higher, 0.8), verdictWorse},
		{"inside the bound", steady(lower, 1), steady(lower, 1.05), verdictSame},
		{"noisy side", steady(lower, 1), summaryOf(lower, 0.10, 0.8, 1.3, 1.6, 1.2), verdictUnresolved},
	} {
		if got := judge(c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	file := func(median, errorRatio float64) *resultFile {
		return &resultFile{Schema: resultSchema, Workloads: []workloadResult{{
			Name: "w", ErrorRatio: errorRatio,
			EndToEnd: map[string]metricSummary{"time_to_solution_s": summaryOf(lower, 0.10, median, median*1.01, median*0.99)},
		}}}
	}
	if code := compareResults(file(1, 0), file(1.02, 0)); code != 0 {
		t.Errorf("same results: exit %d", code)
	}
	if code := compareResults(file(1, 0), file(1.5, 0)); code != 1 {
		t.Errorf("50%% slower: exit %d, want 1", code)
	}
	if code := compareResults(file(1, 0), file(1, 0.1)); code != 1 {
		t.Errorf("higher error ratio: exit %d, want 1", code)
	}
}

// TestHangGuard: a child that dies without a result is recorded as a
// failure carrying its stderr, not propagated.
func TestHangGuard(t *testing.T) {
	p := &parent{quick: true, outDir: t.TempDir(), started: time.Now()}
	res, fail := p.spawn(workloads[0], "no-such-leg", 1, 0, false)
	if res != nil || fail == nil {
		t.Fatalf("spawn of a bad leg: result %v, failure %v", res, fail)
	}
	if !strings.Contains(fail.Stderr, "unknown leg") {
		t.Errorf("failure lost the child's stderr: %+v", fail)
	}
}

// TestQuickRunAll drives the whole benchmark at the -quick sizing: every
// workload end to end and traced, the result file, and compare on it.
func TestQuickRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	out := t.TempDir()
	p := &parent{seed: 1, quick: true, outDir: out}
	if code := p.runAll(1); code != 0 {
		t.Fatalf("runAll exit %d", code)
	}
	path := filepath.Join(out, "result.json")
	f, err := loadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d", w.Name, w.Attempted, w.Failed)
		}
		for _, d := range endToEndMetrics {
			if s := w.EndToEnd[d.Name]; s.N != 1 || s.Median <= 0 {
				t.Errorf("%s: %s = %+v, want 1 positive sample", w.Name, d.Name, s.summary)
			}
		}
		for _, d := range perLayerMetrics {
			if _, ok := w.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			}
		}
		for _, name := range []string{"la.spmv_ns_per_nnz", "navierstokes.step_self_ms", "simmpi.wait_share", "checkpoint.bytes", "telemetry.rows_per_run"} {
			if w.PerLayer[name].Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.Name, name, w.PerLayer[name].Value)
			}
		}
		for _, c := range w.Checks {
			if !c.Pass {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
	if f.Workloads[3].PerLayer["service.job_p50_ms"].Value <= 0 {
		t.Error("service_jobs: service.job_p50_ms not measured")
	}
	if code := compareMain([]string{path, path}); code != 0 {
		t.Errorf("compare of a result with itself: exit %d", code)
	}
	entries, _ := filepath.Glob(filepath.Join(out, "tmp-*"))
	if len(entries) != 0 {
		t.Errorf("scratch state left behind: %v", entries)
	}
}
