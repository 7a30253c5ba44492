package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// Legs a child process can run. Every leg is one fresh process, so its
// peak RSS, heap and caches belong to that leg alone.
const (
	legE2E     = "e2e"     // one untraced simulation exactly as the workload configures it
	legBase    = "base"    // A/B reference: the workload's simulation at abSteps, no checkpoint, no telemetry
	legCkpt    = "ckpt"    // base + checkpoint plan
	legTel     = "tel"     // base + on-disk telemetry sink
	legDLB     = "dlb"     // base with DLB toggled
	legSerial  = "serial"  // base as 1 rank x 1 worker, serial assembly
	legOwn     = "own"     // base through the benchmark's own step driver, spans off
	legTraced  = "traced"  // the workload's simulation through the own driver with spans, then the layer kernels
	legService = "service" // the closed HTTP loop
)

// legSpec is what the parent hands a child (as JSON in -child).
type legSpec struct {
	Workload string  `json:"workload"`
	Leg      string  `json:"leg"`
	Seed     int64   `json:"seed"`
	Quick    bool    `json:"quick"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	OutDir   string  `json:"out_dir"`
}

func (s legSpec) sizing() sizing {
	if s.Quick {
		return quickSizing
	}
	return fullSizing
}

type check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// legResult is what a child prints as the last line of its stdout.
type legResult struct {
	Leg      string    `json:"leg"`
	SetupS   float64   `json:"setup_s"`
	TotalS   float64   `json:"total_s"`
	StepEndS []float64 `json:"step_end_s,omitempty"` // time of each OnStep since the run was called

	Injected  int `json:"injected"`
	Deposited int `json:"deposited"`
	Exited    int `json:"exited"`
	Active    int `json:"active"`

	PeakRSSMB float64 `json:"peak_rss_mb"`
	LoopCPUS  float64 `json:"loop_cpu_s"` // process CPU between the first and last OnStep
	AllocKB   float64 `json:"alloc_kb"`   // heap allocated between OnStep(1) and the last OnStep

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`

	SetupSamples []float64          `json:"setup_samples,omitempty"`
	Latencies    []float64          `json:"latencies_s,omitempty"` // service: cold-job POST -> artifact verified
	SimSteps     int                `json:"sim_steps,omitempty"`   // service: steps simulated by cold jobs
	LoopS        float64            `json:"loop_s,omitempty"`      // service: wall of the closed loop
	Layer        map[string]float64 `json:"layer,omitempty"`
	Checks       []check            `json:"checks,omitempty"`
}

func (r *legResult) check(name string, pass bool, format string, args ...any) {
	c := check{Name: name, Pass: pass}
	if !pass {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// stepRate is the steady-state step rate over OnStep(lo)..OnStep(hi).
func stepRate(stepEnd []float64, lo, hi int) float64 {
	if hi >= len(stepEnd) {
		hi = len(stepEnd) - 1
	}
	if hi <= lo {
		return 0
	}
	return float64(hi-lo) / (stepEnd[hi] - stepEnd[lo])
}

// childMain runs one leg and prints its result; a leg that cannot even
// produce a result exits non-zero and the parent records its stderr.
func childMain(arg string) int {
	var spec legSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad spec:", err)
		return 2
	}
	w := findWorkload(spec.Workload)
	if w == nil {
		fmt.Fprintln(os.Stderr, "benchmark child: unknown workload", spec.Workload)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	tmp, err := os.MkdirTemp(spec.OutDir, "tmp-"+spec.Leg+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var res *legResult
	switch spec.Leg {
	case legService:
		res, err = runServiceLeg(w, spec, tmp)
	case legTraced, legOwn:
		res, err = runOwnDriverLeg(w, spec)
	default:
		res, err = runSimLeg(w, spec, tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	res.Leg = spec.Leg
	for _, c := range res.Checks {
		if !c.Pass && res.Failed == 0 {
			res.Failed = 1 // a failed check is a failed operation
		}
	}
	res.PeakRSSMB = peakRSSMB()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// legConfig derives the configuration a simulation leg runs.
func legConfig(w *workload, spec legSpec) (repro.SimulationConfig, error) {
	sz := spec.sizing()
	cfg := w.config(spec.Seed, sz)
	if spec.Leg == legE2E || spec.Leg == legTraced {
		return cfg, nil
	}
	cfg.Run.Steps = sz.abSteps
	switch spec.Leg {
	case legBase, legCkpt, legTel, legOwn:
	case legDLB:
		cfg.Run.UseDLB = !cfg.Run.UseDLB
	case legSerial:
		cfg = serialVariant(cfg)
	default:
		return cfg, fmt.Errorf("unknown leg %q", spec.Leg)
	}
	return cfg, nil
}

// runSimLeg runs one simulation through the public entry point, the way
// a user of the library or the CLI does, timing it from outside.
func runSimLeg(w *workload, spec legSpec, tmp string) (*legResult, error) {
	cfg, err := legConfig(w, spec)
	if err != nil {
		return nil, err
	}
	ckptPath := filepath.Join(tmp, "ckpt", "run.ckpt")
	telDir := filepath.Join(tmp, "telemetry")
	var store *telemetry.Store
	if spec.Leg == legCkpt || (spec.Leg == legE2E && w.checkpoint) {
		if err := os.MkdirAll(filepath.Dir(ckptPath), 0o755); err != nil {
			return nil, err
		}
		every := spec.sizing().abEvery
		if spec.Leg == legE2E {
			every = w.ckptEvery
		}
		var ckptErr error
		cfg.Run.Checkpoint = &checkpoint.Plan{Path: ckptPath, Every: every, Keep: 2,
			OnError: func(err error) { ckptErr = errors.Join(ckptErr, err) }}
		defer func() {
			if ckptErr != nil {
				fmt.Fprintln(os.Stderr, "benchmark child: checkpoint:", ckptErr)
			}
		}()
	}
	if spec.Leg == legTel || (spec.Leg == legE2E && w.telemetry) {
		if store, err = telemetry.OpenDir(telDir); err != nil {
			return nil, err
		}
		cfg.Run.Telemetry = store
	}

	res := &legResult{Attempted: 1, Layer: map[string]float64{}}
	last := cfg.Run.Steps - 1
	stepEnd := make([]float64, 0, cfg.Run.Steps)
	var cpu0 float64
	var alloc0 uint64
	var t0 time.Time
	wantAlloc := spec.Leg == legBase
	cfg.Run.OnStep = func(step int) {
		stepEnd = append(stepEnd, time.Since(t0).Seconds())
		if step == 0 {
			cpu0 = processCPUSeconds()
		}
		if step == last {
			res.LoopCPUS = processCPUSeconds() - cpu0
		}
		if wantAlloc && (step == 1 || step == last) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if step == 1 {
				alloc0 = ms.TotalAlloc
			} else {
				res.AllocKB = float64(ms.TotalAlloc-alloc0) / 1024
			}
		}
	}

	t0 = time.Now()
	out, err := repro.RunSimulationContext(context.Background(), cfg)
	var summary string
	if err == nil {
		summary = out.Summary()
	}
	res.TotalS = time.Since(t0).Seconds()
	res.StepEndS = stepEnd
	if err != nil {
		res.Failed = 1
		res.check("run_ok", false, "%v", err)
		return res, nil
	}
	res.check("run_ok", len(stepEnd) == cfg.Run.Steps && summary != "", "%d of %d steps reported", len(stepEnd), cfg.Run.Steps)
	res.SetupS = stepEnd[0]
	r := out.Result
	res.Injected, res.Deposited, res.Exited, res.Active = r.Injected, r.Deposited, r.Exited, r.ActiveEnd
	res.check("particles_conserved", r.Injected == r.Deposited+r.Exited+r.ActiveEnd,
		"injected %d != deposited %d + exited %d + active %d", r.Injected, r.Deposited, r.Exited, r.ActiveEnd)
	if spec.Leg == legE2E && !spec.Quick && r.Injected > 0 {
		dep := float64(r.Deposited) / float64(r.Injected)
		exi := float64(r.Exited) / float64(r.Injected)
		res.check("fates_match_reference", abs(dep-w.refDeposited) <= 0.005 && abs(exi-w.refExited) <= 0.005,
			"deposited %.4f (reference %.4f), exited %.4f (reference %.4f)", dep, w.refDeposited, exi, w.refExited)
	}
	if spec.Leg == legCkpt {
		if err := checkpointMetrics(ckptPath, tmp, res.Layer); err != nil {
			return nil, fmt.Errorf("checkpoint metrics: %w", err)
		}
		if err := scanMetrics(filepath.Dir(ckptPath), res.Layer); err != nil {
			return nil, err
		}
	}
	if spec.Leg == legTel {
		if err := telemetryMetrics(store, telDir, tmp, res.Layer); err != nil {
			return nil, fmt.Errorf("telemetry metrics: %w", err)
		}
		if err := scanMetrics(telDir, res.Layer); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkpointMetrics times the checkpoint codec and the durable save on
// the newest snapshot the run left behind.
func checkpointMetrics(path, tmp string, out map[string]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		return err
	}
	mb := float64(len(data)) / 1e6
	out["checkpoint.bytes"] = float64(len(data))
	out["checkpoint.decode_mb_s"] = mb / (perCall(func() {
		if _, err := checkpoint.Decode(data); err != nil {
			panic(err)
		}
	}) / 1e9)
	out["checkpoint.encode_mb_s"] = mb / (perCall(func() { sinkBytes = snap.Encode() }) / 1e9)
	scratch := filepath.Join(tmp, "save.ckpt")
	saves := make([]float64, 5)
	for i := range saves {
		t := time.Now()
		if err := snap.Save(scratch); err != nil {
			return err
		}
		saves[i] = time.Since(t).Seconds() * 1e3
	}
	out["checkpoint.save_ms"] = median(saves)
	return os.Remove(scratch)
}

// telemetryMetrics measures the store on the run the leg just recorded:
// rows per run, append and query rates, and what WithVerifyOnRead costs.
func telemetryMetrics(store *telemetry.Store, dir, tmp string, out map[string]float64) error {
	runs := store.Runs()
	if len(runs) != 1 {
		return fmt.Errorf("store holds %d runs, want 1", len(runs))
	}
	run := runs[0].Run
	rows, err := store.Query(run, telemetry.Query{})
	if err != nil {
		return err
	}
	n := float64(len(rows))
	out["telemetry.rows_per_run"] = n
	query := func(st *telemetry.Store) float64 {
		return perCall(func() {
			got, err := st.Query(run, telemetry.Query{})
			if err != nil || len(got) != len(rows) {
				panic(fmt.Sprintf("query: %d rows, err %v", len(got), err))
			}
		})
	}
	// Both sides read through a freshly opened store, so the only
	// difference between them is the checksum pass.
	reopened, err := telemetry.OpenDir(dir)
	if err != nil {
		return err
	}
	verifying, err := telemetry.OpenDir(dir, telemetry.WithVerifyOnRead())
	if err != nil {
		return err
	}
	plain := query(reopened)
	out["telemetry.query_rows_s"] = n / (plain / 1e9)
	out["telemetry.verify_read_overhead_pct"] = (query(verifying)/plain - 1) * 100

	// Append: drain the same rows into a fresh on-disk run, flush included.
	appendDir := filepath.Join(tmp, "append")
	dst, err := telemetry.OpenDir(appendDir)
	if err != nil {
		return err
	}
	var appendErr error
	ns := perCall(func() {
		w, err := dst.BeginRun(telemetry.RunMeta{Mode: "benchmark", Ranks: runs[0].Ranks, Steps: runs[0].Steps})
		if err != nil {
			appendErr = err
			return
		}
		w.Append(rows...)
		if err := w.Close(); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	out["telemetry.append_rows_s"] = n / (ns / 1e9)
	return os.RemoveAll(appendDir)
}

// scanMetrics scrubs dir the way `respira -verify` does and accumulates
// bytes and seconds; the parent turns the sums into integrity.scan_mb_s.
func scanMetrics(dir string, out map[string]float64) error {
	var bytes int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	var verdicts []integrity.Verdict
	ns := perCall(func() {
		if verdicts, err = integrity.ScanDir(dir); err != nil {
			panic(err)
		}
	})
	bad := 0
	for _, v := range verdicts {
		if v.Bad() {
			bad++
		}
	}
	out["_scan_bytes"] += float64(bytes)
	out["_scan_s"] += ns / 1e9
	out["integrity.bad_verdicts"] += float64(bad)
	return nil
}

var sinkBytes []byte

// perCall returns the median wall time of one call of fn in nanoseconds.
// It sizes a batch to last about 2 ms, then times seven batches, so a
// kernel costs the traced run ~15-30 ms whatever its size.
func perCall(fn func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t); d >= 2*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	samples := make([]float64, 7)
	for s := range samples {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[s] = float64(time.Since(t)) / float64(n)
	}
	return median(samples)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// processCPUSeconds is user+system CPU of this process so far.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads this process's VmHWM, falling back to getrusage's
// maximum resident set where /proc is not mounted.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) >= 1 {
					kb, _ := strconv.ParseFloat(f[0], 64)
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
