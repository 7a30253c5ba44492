package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/scenario"
)

// serveCmd is `respira serve`: the scenario registry as a long-running
// HTTP job service (the endpoints are listed in README.md). A
// cost/capacity scheduler queues jobs FIFO (429 once -queue is full),
// and an expiring single-flight cache runs identical concurrent
// submissions once. -telemetry DIR records every job's run events for
// `respira trace`; -checkpoint DIR lets a killed process resume its jobs
// under their old IDs on restart; -retries N retries transient failures
// (a -watchdog stall, an injected fault). A cancelled ctx drains:
// submissions get 503 + Retry-After while running jobs finish, bounded
// by -drain-timeout.
func serveCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("respira serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		capacity     = fs.Int64("capacity", 0, "scheduler cost capacity (0 = 2x one default measured run)")
		queue        = fs.Int("queue", 64, "max jobs waiting for capacity before POST /jobs returns 429")
		ttl          = fs.Duration("ttl", 15*time.Minute, "artifact cache TTL")
		telemetryDir = fs.String("telemetry", "", "persist run telemetry into this store directory (empty = off)")
		maxRuns      = fs.Int("telemetry-max-runs", 0, "retain at most N telemetry runs, pruning the oldest whose jobs hold no checkpoints (0 = keep all)")
		tverify      = fs.Bool("telemetry-verify", false, "verify chunk checksums on every telemetry read; corrupt chunks surface as errors instead of bad rows")
		ckptDir      = fs.String("checkpoint", "", "job manifests and simulation checkpoints directory: jobs survive restarts and resume mid-run (empty = off)")
		retries      = fs.Int("retries", 0, "retry a job's transient failures (stalls, injected faults) up to N times with capped exponential backoff")
		deadline     = fs.Duration("deadline", 0, "default per-job deadline for jobs that send no deadlineMs (0 = unbounded)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for running jobs before shutting down")
	)
	persist := bindPersistence(fs)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if err := firstErr(
		scenario.CheckNonNegative("capacity", int(*capacity)),
		scenario.CheckNonNegative("queue", *queue),
		scenario.CheckNonNegative("telemetry-max-runs", *maxRuns),
		scenario.CheckNonNegative("retries", *retries),
		persist.check(),
		nonNegative("deadline", *deadline),
		nonNegative("drain-timeout", *drainTimeout),
	); err != nil {
		return err
	}
	if *ttl <= 0 {
		return usagef("ttl must be positive, got %v", *ttl)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, "respira serve: "+format+"\n", args...) }

	var tstore *telemetry.Store
	if *telemetryDir != "" {
		var opts []telemetry.Option
		if *tverify {
			opts = append(opts, telemetry.WithVerifyOnRead())
		}
		st, err := telemetry.OpenDir(*telemetryDir, opts...)
		if err != nil {
			return err
		}
		tstore = st
	}

	srv := service.New(service.Config{
		Capacity:         *capacity,
		MaxQueue:         *queue,
		CacheTTL:         *ttl,
		Telemetry:        tstore,
		TelemetryMaxRuns: *maxRuns,
		MaxRetries:       *retries,
		DefaultDeadline:  *deadline,
		CheckpointDir:    *ckptDir,
		CheckpointEvery:  persist.every,
		CheckpointKeep:   persist.keep,
		Watchdog:         persist.watchdog,
		Logf:             logf,
	})

	// Resubmit jobs the previous process left behind before opening the
	// listener, so their old URLs answer from the first request.
	if recovered := srv.Recover(); len(recovered) > 0 {
		logf("recovered %d interrupted jobs from %s", len(recovered), *ckptDir)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logf("serving %d scenarios on %s (queue %d, ttl %v)",
		len(scenario.Default.Names()), *addr, *queue, *ttl)
	if tstore != nil {
		logf("recording run telemetry into %s (%d runs on open)", *telemetryDir, tstore.RunCount())
	}
	if *ckptDir != "" {
		logf("checkpointing jobs into %s (every %d steps)", *ckptDir, persist.every)
	}

	select {
	case err := <-errc: // the listener failed: nothing has shut it down yet
		return err
	case <-ctx.Done():
	}
	// Drain: reject new submissions with 503 + Retry-After while running
	// jobs finish. The drain timeout cancels what is left (a second signal
	// kills the process); with -checkpoint set those jobs resume on the
	// next start.
	srv.BeginDrain()
	logf("draining %d active jobs (up to %v; signal again to stop now)", srv.ActiveJobs(), *drainTimeout)
	drained := time.After(*drainTimeout)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
wait:
	for srv.ActiveJobs() > 0 {
		select {
		case <-drained:
			break wait
		case <-tick.C:
		}
	}
	srv.Close() // cancel whatever is left at its next step boundary
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}
