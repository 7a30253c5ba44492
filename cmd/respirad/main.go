// Command respirad serves the scenario registry over HTTP as a
// long-running job service: submit a scenario with optional overrides,
// get a job ID, poll status and progress, fetch the typed artifact as
// text, JSON, or CSV, cancel mid-run. A bounded cost/capacity scheduler
// queues jobs FIFO when the process is saturated (and rejects with 429
// once the queue is full), and an expiring single-flight artifact cache
// deduplicates identical concurrent submissions into one underlying run.
//
// Endpoints:
//
//	GET    /scenarios                     registry listing with tags
//	POST   /jobs                          {"scenario": "fig8", "options": {"steps": 2}}
//	GET    /jobs                          all jobs, newest last
//	GET    /jobs/{id}                     status + progress events
//	GET    /jobs/{id}/artifact?format=f   f in text|json|csv
//	DELETE /jobs/{id}                     cancel at the next step boundary
//	GET    /healthz                       liveness ("ok", "degraded", "draining")
//	GET    /stats                         scheduler occupancy + cache hits/misses
//	GET    /admin/integrity               scrub checkpoints and telemetry, per-file verdicts
//
// With -telemetry DIR every executed job also persists its run events
// (rank timelines, step and DLB-migration markers, scheduler admission)
// into a chunked on-disk store, served back at:
//
//	GET    /jobs/{id}/trace?from=&to=&rank=   stored rows of the job's run
//	GET    /jobs/{id}/phases                  per-phase makespan + Ln table
//	GET    /telemetry/runs                    recorded runs, newest first
//	GET    /telemetry/runs/{run}?from=&to=&rank=
//
// The store survives restarts (crash-truncated chunks are recovered on
// open) and is readable offline with `traceview -store DIR`.
// -telemetry-max-runs N bounds retention: once a job finishes, runs
// past the N newest are deleted, except runs of jobs that still have
// checkpoints on disk (interrupted but resumable).
//
// Fault tolerance: with -checkpoint DIR, accepted jobs write a manifest
// and their simulations checkpoint every -checkpoint-every steps, so a
// killed process resumes on restart — manifests are resubmitted under
// their original IDs and interrupted runs continue mid-simulation.
// A failing rank aborts its simulation at once; -watchdog only bounds a
// blocking exchange whose message is truly lost, surfacing it as a typed
// stall, and -retries N retries such transient failures with capped
// exponential backoff. On SIGTERM the
// server drains: new submissions get 503 + Retry-After while running
// jobs finish (bounded by -drain-timeout), checkpointing what doesn't.
//
// Example:
//
//	respirad -addr :8080 -capacity 1536 -queue 64 -ttl 15m \
//	  -telemetry /var/lib/respirad/telemetry -telemetry-max-runs 1000 \
//	  -checkpoint /var/lib/respirad/ckpt -watchdog 30s -retries 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "repro" // populate the default scenario registry
	"repro/internal/service"
	"repro/internal/tasking"
	"repro/internal/telemetry"
	"repro/scenario"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	capacity := flag.Int64("capacity", 0, "scheduler cost capacity (0 = 2x one default measured run)")
	queue := flag.Int("queue", 64, "max jobs waiting for capacity before POST /jobs returns 429")
	ttl := flag.Duration("ttl", 15*time.Minute, "artifact cache TTL")
	workers := flag.Int("workers", runtime.NumCPU(), "shared runner pool workers")
	telemetryDir := flag.String("telemetry", "", "persist run telemetry into this store directory (empty = off)")
	maxRuns := flag.Int("telemetry-max-runs", 0, "retain at most N telemetry runs, pruning the oldest whose jobs hold no checkpoints (0 = keep all)")
	ckptDir := flag.String("checkpoint", "", "job manifests and simulation checkpoints directory: jobs survive restarts and resume mid-run (empty = off)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint capture period in simulation steps (0 = default 25)")
	ckptKeep := flag.Int("checkpoint-keep", 0, "snapshot generations retained per run; resume falls back past corrupt ones (0 = default 2)")
	tverify := flag.Bool("telemetry-verify", false, "verify chunk checksums on every telemetry read; corrupt chunks surface as errors instead of bad rows")
	watchdog := flag.Duration("watchdog", 0, "bound on a simulation exchange whose message is lost; a rank error needs none, it aborts the run at once (0 = off)")
	retries := flag.Int("retries", 0, "retry a job's transient failures (stalls, injected faults) up to N times with capped exponential backoff")
	deadline := flag.Duration("deadline", 0, "default per-job deadline for jobs that send no deadlineMs (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for running jobs before shutting down")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "respirad:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := scenario.CheckNonNegative("capacity", int(*capacity)); err != nil {
		fail(err)
	}
	if err := scenario.CheckNonNegative("queue", *queue); err != nil {
		fail(err)
	}
	if err := scenario.CheckPositive("workers", *workers); err != nil {
		fail(err)
	}
	if *ttl <= 0 {
		fail(fmt.Errorf("ttl must be positive, got %v", *ttl))
	}
	for name, v := range map[string]int{
		"telemetry-max-runs": *maxRuns, "checkpoint-every": *ckptEvery,
		"checkpoint-keep": *ckptKeep, "retries": *retries,
	} {
		if err := scenario.CheckNonNegative(name, v); err != nil {
			fail(err)
		}
	}
	if *watchdog < 0 || *deadline < 0 || *drainTimeout < 0 {
		fail(fmt.Errorf("watchdog, deadline, and drain-timeout must be nonnegative"))
	}

	var tstore *telemetry.Store
	if *telemetryDir != "" {
		var opts []telemetry.Option
		if *tverify {
			opts = append(opts, telemetry.WithVerifyOnRead())
		}
		st, err := telemetry.OpenDir(*telemetryDir, opts...)
		if err != nil {
			fail(err)
		}
		tstore = st
	}

	pool := tasking.NewPool(*workers)
	defer pool.Close()
	srv := service.New(service.Config{
		Capacity:         *capacity,
		MaxQueue:         *queue,
		CacheTTL:         *ttl,
		RunnerPool:       pool,
		Telemetry:        tstore,
		TelemetryMaxRuns: *maxRuns,
		MaxRetries:       *retries,
		DefaultDeadline:  *deadline,
		CheckpointDir:    *ckptDir,
		CheckpointEvery:  *ckptEvery,
		CheckpointKeep:   *ckptKeep,
		Watchdog:         *watchdog,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "respirad: "+format+"\n", args...)
		},
	})

	// Resubmit jobs the previous process left behind before opening the
	// listener, so their old URLs answer from the first request.
	if recovered := srv.Recover(); len(recovered) > 0 {
		fmt.Fprintf(os.Stderr, "respirad: recovered %d interrupted jobs from %s\n", len(recovered), *ckptDir)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "respirad: serving %d scenarios on %s (queue %d, ttl %v, %d pool workers)\n",
		len(scenario.Default.Names()), *addr, *queue, *ttl, *workers)
	if tstore != nil {
		fmt.Fprintf(os.Stderr, "respirad: recording run telemetry into %s (%d runs on open)\n",
			*telemetryDir, tstore.RunCount())
	}
	if *ckptDir != "" {
		fmt.Fprintf(os.Stderr, "respirad: checkpointing jobs into %s (every %d steps)\n", *ckptDir, func() int {
			if *ckptEvery > 0 {
				return *ckptEvery
			}
			return 25
		}())
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "respirad:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Drain: reject new submissions with 503 + Retry-After while
		// running jobs finish. A second signal, or the drain timeout,
		// cancels what is left — with -checkpoint set those jobs resume
		// on the next start.
		srv.BeginDrain()
		fmt.Fprintf(os.Stderr, "respirad: draining %d active jobs (up to %v; signal again to stop now)\n",
			srv.ActiveJobs(), *drainTimeout)
		stop() // restore default signal handling: a second SIGTERM kills the wait below
		drained := time.After(*drainTimeout)
		tick := time.NewTicker(100 * time.Millisecond)
	wait:
		for srv.ActiveJobs() > 0 {
			select {
			case <-drained:
				break wait
			case <-tick.C:
			}
		}
		tick.Stop()
		srv.Close() // cancel whatever is left at its next step boundary
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx) //nolint:errcheck
	}
}
