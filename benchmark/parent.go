package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childGuard is the hang guard of one child process: a leg that
// deadlocks, diverges into a panic or simply never returns is killed and
// recorded as a failed operation instead of taking the benchmark down.
const childGuard = 120 * time.Second

// runBudget bounds one whole invocation, children included.
const runBudget = 170 * time.Second

type parent struct {
	seed    int64
	seconds float64
	quick   bool
	outDir  string
	started time.Time
}

// failure is a child that produced no result.
type failure struct {
	Leg    string `json:"leg"`
	Error  string `json:"error"`
	Stderr string `json:"stderr_tail,omitempty"`
}

// outcome is one run of one workload, traced or not.
type outcome struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Checks    []check            `json:"checks"`
	Failures  []failure          `json:"failures,omitempty"`
	// Samples keeps what the medians were taken over.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func (o *outcome) correct() bool {
	if o.Failed > 0 || len(o.Failures) > 0 {
		return false
	}
	for _, c := range o.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// mergeChecks folds src into dst by name (prefix first), so a check that
// ran many times is listed once; it keeps its first failure.
func mergeChecks(dst, src []check, prefix string) []check {
next:
	for _, c := range src {
		c.Name = prefix + c.Name
		for i := range dst {
			if dst[i].Name == c.Name {
				if dst[i].Pass && !c.Pass {
					dst[i] = c
				}
				continue next
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// spawn runs one leg in a fresh child process under the hang guard.
func (p *parent) spawn(w *workload, leg string, legSeed int64, seconds float64, trace bool) (*legResult, *failure) {
	spec := legSpec{Workload: w.name, Leg: leg, Seed: legSeed, Quick: p.quick, Seconds: seconds, Trace: trace, OutDir: p.outDir}
	arg, _ := json.Marshal(spec)
	exe, err := os.Executable()
	if err != nil {
		return nil, &failure{Leg: leg, Error: err.Error()}
	}
	guard := childGuard
	if left := runBudget - time.Since(p.started); left < guard {
		guard = max(left, time.Second)
	}
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.WaitDelay = 5 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	tail := stderr.String()
	if len(tail) > 2048 {
		tail = tail[len(tail)-2048:]
	}
	if ctx.Err() != nil {
		return nil, &failure{Leg: leg, Error: fmt.Sprintf("killed at the %v hang guard", guard), Stderr: tail}
	}
	if err != nil {
		return nil, &failure{Leg: leg, Error: err.Error(), Stderr: tail}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res legResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, &failure{Leg: leg, Error: "unreadable result: " + err.Error(), Stderr: tail}
	}
	return &res, nil
}

// childEnv marks a process as a benchmark child; the tests' TestMain
// uses it to turn the test binary into the benchmark.
const childEnv = "REPRO_BENCHMARK_CHILD"

// runOne is the contract mode: one workload, one run, one JSON line.
func (p *parent) runOne(w *workload, traced bool) int {
	p.started = time.Now()
	var o *outcome
	var defs []metricDef
	if traced {
		o, defs = p.traced(w), perLayerMetrics
	} else {
		o, defs = p.endToEnd(w), endToEndMetrics
	}
	printOutcome(os.Stderr, o, defs)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), max(o.Attempted, 1), o.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{o.Metrics[d.Name], d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	p.sweepScratch()
	return 0 // a result was printed; "correct" carries the verdict
}

// sweepScratch removes scratch state a killed child could not remove.
func (p *parent) sweepScratch() {
	left, _ := filepath.Glob(filepath.Join(p.outDir, "tmp-*"))
	for _, dir := range left {
		os.RemoveAll(dir)
	}
}

// endToEnd measures a workload with tracing off. A simulation workload
// runs fresh simulations back to back, each in its own child process,
// until the run's seconds are used; service_jobs is one child that keeps
// its closed loop going for that long.
func (p *parent) endToEnd(w *workload) *outcome {
	o := &outcome{Workload: w.name, Seed: p.seed, Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	if w.service {
		res, fail := p.spawn(w, legService, p.seed, p.seconds, false)
		if fail != nil {
			o.Attempted, o.Failed = 1, 1
			o.Failures = append(o.Failures, *fail)
			return o
		}
		o.Attempted, o.Failed, o.Checks = res.Attempted, res.Failed, res.Checks
		o.Samples["setup_s"], o.Samples["time_to_solution_s"] = res.SetupSamples, res.Latencies
		o.Metrics["setup_s"] = res.SetupS
		o.Metrics["steps_per_s"] = float64(res.SimSteps) / res.LoopS
		o.Metrics["time_to_solution_s"] = median(res.Latencies)
		o.Metrics["peak_rss_mb"] = res.PeakRSSMB
		return o
	}

	minRuns := 2
	if p.quick {
		minRuns = 1
	}
	start := time.Now()
	var setup, total, rss []float64
	var steps int
	var loopS float64
	for rep := 0; ; rep++ {
		// Another simulation starts only if at least half of one fits.
		if elapsed := time.Since(start).Seconds(); rep >= minRuns && elapsed+elapsed/float64(rep)/2 > p.seconds {
			break
		}
		res, fail := p.spawn(w, legE2E, p.seed*1000+int64(rep), 0, false)
		o.Attempted++
		if fail != nil {
			o.Failed++
			o.Failures = append(o.Failures, *fail)
			if len(o.Failures) >= 2 {
				break // a workload that keeps failing is not worth its whole time box
			}
			continue
		}
		o.Failed += res.Failed
		o.Checks = mergeChecks(o.Checks, res.Checks, "")
		if res.Failed > 0 || len(res.StepEndS) < 2 {
			continue
		}
		setup, total, rss = append(setup, res.SetupS), append(total, res.TotalS), append(rss, res.PeakRSSMB)
		steps += len(res.StepEndS) - 1
		loopS += res.StepEndS[len(res.StepEndS)-1] - res.StepEndS[0]
	}
	o.Samples["setup_s"], o.Samples["time_to_solution_s"], o.Samples["peak_rss_mb"] = setup, total, rss
	o.Metrics["setup_s"] = median(setup)
	if loopS > 0 {
		o.Metrics["steps_per_s"] = float64(steps) / loopS
	}
	o.Metrics["time_to_solution_s"] = median(total)
	o.Metrics["peak_rss_mb"] = median(rss)
	return o
}

// traced is the per-layer run: the workload's simulation once through
// the benchmark's own step driver with spans on, the layer kernels on
// its state, and the short A/B legs that price what cannot be seen from
// spans (driver gap, serial baseline, DLB, checkpoint, telemetry).
// service_jobs first runs its closed loop with client-side spans.
func (p *parent) traced(w *workload) *outcome {
	o := &outcome{Workload: w.name, Traced: true, Seed: p.seed, Metrics: map[string]float64{}}
	simSeed := p.seed * 1000
	legs := map[string]*legResult{}
	run := func(leg string, seconds float64) *legResult {
		res, fail := p.spawn(w, leg, simSeed, seconds, true)
		o.Attempted++
		if fail != nil {
			o.Failed++
			o.Failures = append(o.Failures, *fail)
			return nil
		}
		o.Failed += min(res.Failed, 1)
		o.Checks = mergeChecks(o.Checks, res.Checks, leg+".")
		for k, v := range res.Layer {
			o.Metrics[k] += v
		}
		legs[leg] = res
		return res
	}
	if w.service {
		if res, fail := p.spawn(w, legService, p.seed, p.seconds, true); fail != nil {
			o.Attempted, o.Failed = 1, 1
			o.Failures = append(o.Failures, *fail)
		} else {
			o.Attempted, o.Failed, o.Checks = res.Attempted, res.Failed, res.Checks
			for k, v := range res.Layer {
				o.Metrics[k] = v
			}
		}
	}
	for _, leg := range []string{legTraced, legOwn, legBase, legSerial, legDLB, legCkpt, legTel} {
		run(leg, 0)
	}

	sz := fullSizing
	if p.quick {
		sz = quickSizing
	}
	// Rates compare the same window of steps, OnStep(1)..OnStep(abSteps-1),
	// so warm-up and run length cancel out.
	rate := func(leg string) float64 {
		if r := legs[leg]; r != nil {
			return stepRate(r.StepEndS, 1, sz.abSteps-1)
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := o.Metrics
	m["harness.trace_overhead_pct"] = (ratio(rate(legOwn), rate(legTraced)) - 1) * 100
	m["coupling.driver_gap_pct"] = (ratio(rate(legOwn), rate(legBase)) - 1) * 100
	m["coupling.speedup_vs_serial"] = ratio(rate(legBase), rate(legSerial))
	m["checkpoint.run_overhead_pct"] = (ratio(rate(legBase), rate(legCkpt)) - 1) * 100
	cfg := w.config(simSeed, sz)
	on, off := legBase, legDLB
	if !cfg.Run.UseDLB {
		on, off = legDLB, legBase
	}
	m["dlb.on_off_wall_ratio"] = ratio(rate(off), rate(on))
	if base, tel := legs[legBase], legs[legTel]; base != nil && tel != nil {
		m["telemetry.run_overhead_pct"] = (ratio(tel.TotalS, base.TotalS) - 1) * 100
	}
	if base := legs[legBase]; base != nil && len(base.StepEndS) >= 2 {
		n := len(base.StepEndS)
		loop := base.StepEndS[n-1] - base.StepEndS[0]
		cores := min(runtime.NumCPU(), (cfg.Run.FluidRanks+cfg.Run.ParticleRanks)*max(cfg.Run.WorkersPerRank, 1))
		m["coupling.cpu_busy_ratio"] = ratio(base.LoopCPUS, loop*float64(cores))
		m["coupling.alloc_kb_per_step"] = ratio(base.AllocKB, float64(n-2))
	}
	m["integrity.scan_mb_s"] = ratio(m["_scan_bytes"]/1e6, m["_scan_s"])
	for k := range m {
		if strings.HasPrefix(k, "_") {
			delete(m, k)
		}
	}
	return o
}
