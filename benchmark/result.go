package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const resultSchema = "repro/benchmark/v1"

// resultFile is out/result.json: everything one `benchmark` invocation
// over all workloads measured, in a form `benchmark compare` reads.
type resultFile struct {
	Schema    string           `json:"schema"`
	Host      hostFacts        `json:"host"`
	GitCommit string           `json:"git_commit"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick"`
	Workloads []workloadResult `json:"workloads"`
}

type hostFacts struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type metricSummary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	Name       string                   `json:"name"`
	Why        string                   `json:"why"`
	Attempted  int                      `json:"attempted"`
	Failed     int                      `json:"failed"`
	ErrorRatio float64                  `json:"error_ratio"`
	EndToEnd   map[string]metricSummary `json:"end_to_end"`
	PerLayer   map[string]layerValue    `json:"per_layer"`
	Checks     []check                  `json:"checks"`
	Failures   []failure                `json:"failures,omitempty"`
	Runs       []*outcome               `json:"runs"`
}

func gatherHostFacts() hostFacts {
	h := hostFacts{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload reps times untraced (seeds seed, seed+1,
// ...) and once traced, prints every metric, writes out/result.json and
// reports failure if any operation or check failed.
func (p *parent) runAll(reps int) int {
	host := gatherHostFacts()
	fmt.Printf("host: %s, %d cpus, GOMAXPROCS %d, %s %s/%s\n", host.CPUModel, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.GOOS, host.GOARCH)
	file := resultFile{Schema: resultSchema, Host: host, GitCommit: gitCommit(), Seed: p.seed, Seconds: p.seconds, Quick: p.quick}
	ok := true
	baseSeed := p.seed
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Why: w.why, EndToEnd: map[string]metricSummary{}, PerLayer: map[string]layerValue{}}
		values := map[string][]float64{}
		for rep := 0; rep < reps; rep++ {
			p.seed, p.started = baseSeed+int64(rep), time.Now()
			o := p.endToEnd(w)
			wr.absorb(o)
			for _, d := range endToEndMetrics {
				values[d.Name] = append(values[d.Name], o.Metrics[d.Name])
			}
		}
		p.seed, p.started = baseSeed, time.Now()
		traced := p.traced(w)
		wr.absorb(traced)
		for _, d := range endToEndMetrics {
			wr.EndToEnd[d.Name] = metricSummary{d.Unit, d.Better, d.Bound, summarize(values[d.Name])}
		}
		for _, d := range perLayerMetrics {
			wr.PerLayer[d.Name] = layerValue{traced.Metrics[d.Name], d.Unit}
		}
		if wr.Attempted > 0 {
			wr.ErrorRatio = float64(wr.Failed) / float64(wr.Attempted)
		}
		printWorkload(os.Stdout, &wr)
		for _, c := range wr.Checks {
			ok = ok && c.Pass
		}
		ok = ok && wr.Failed == 0 && len(wr.Failures) == 0
		file.Workloads = append(file.Workloads, wr)
	}
	p.seed = baseSeed
	p.sweepScratch()
	path := filepath.Join(p.outDir, "result.json")
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("wrote", path)
	if !ok {
		fmt.Println("FAILED: at least one operation or correctness check failed")
		return 1
	}
	return 0
}

// absorb folds one run into the workload's totals.
func (wr *workloadResult) absorb(o *outcome) {
	wr.Runs = append(wr.Runs, o)
	wr.Attempted += o.Attempted
	wr.Failed += o.Failed
	wr.Failures = append(wr.Failures, o.Failures...)
	wr.Checks = mergeChecks(wr.Checks, o.Checks, "")
}

func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d attempted, %d failed (error_ratio %.4g)\n", wr.Name, wr.Attempted, wr.Failed, wr.ErrorRatio)
	for _, d := range endToEndMetrics {
		s := wr.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-22s %12.6g %-4s  q1 %-10.6g q3 %-10.6g n=%d  (%s is better, bound %.0f%%, spread %.1f%%)\n",
			d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, d.Better, d.Bound*100, s.spread()*100)
	}
	for _, d := range perLayerMetrics {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
	}
	printChecks(w, wr.Checks, wr.Failures)
}

func printChecks(w io.Writer, checks []check, failures []failure) {
	for _, c := range checks {
		verdict := "pass"
		if !c.Pass {
			verdict = "FAIL " + c.Detail
		}
		fmt.Fprintf(w, "  check %-42s %s\n", c.Name, verdict)
	}
	for _, f := range failures {
		fmt.Fprintf(w, "  leg %s failed: %s\n%s\n", f.Leg, f.Error, f.Stderr)
	}
}

// printOutcome is the human-readable side of one contract-mode run.
func printOutcome(w io.Writer, o *outcome, defs []metricDef) {
	host := gatherHostFacts()
	fmt.Fprintf(w, "host: %s, %d cpus, GOMAXPROCS %d, %s\n", host.CPUModel, host.NumCPU, host.GOMAXPROCS, host.GoVersion)
	fmt.Fprintf(w, "%s seed %d traced=%v: %d attempted, %d failed\n", o.Workload, o.Seed, o.Traced, o.Attempted, o.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.6g %-6s (%s is better", d.Name, o.Metrics[d.Name], d.Unit, d.Better)
		if d.Bound > 0 {
			fmt.Fprintf(w, ", bound %.0f%%", d.Bound*100)
		}
		if vals := o.Samples[d.Name]; len(vals) > 0 {
			s := summarize(vals)
			fmt.Fprintf(w, "; n=%d q1 %.6g q3 %.6g", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w, ")")
	}
	printChecks(w, o.Checks, o.Failures)
}
