// Job-level resilience: watchdogged retry with capped exponential
// backoff, per-job deadlines, checkpoint plan threading, on-disk job
// manifests with restart recovery, and graceful drain. The retry loop
// lives inside the artifact cache's single-flight closure, so
// deduplicated followers automatically ride the leader's retries.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/coupling"
	"repro/internal/la"
	"repro/internal/navierstokes"
	"repro/scenario"
)

// retryPolicy shapes the backoff between job attempts.
type retryPolicy struct {
	max  int           // retries after the first attempt; 0 disables
	base time.Duration // first backoff
	cap  time.Duration // backoff ceiling
}

// delay computes the backoff before retry number n (1-based): capped
// exponential with half-interval jitter, so a burst of jobs felled by
// the same fault does not thunder back in lockstep.
func (p retryPolicy) delay(n int) time.Duration {
	d := p.base
	for i := 1; i < n && d < p.cap; i++ {
		d *= 2
	}
	if d > p.cap {
		d = p.cap
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// permanentClass classifies an error that retrying cannot fix: the
// same scenario deterministically reproduces it, so another attempt
// only burns retry budget and backoff time. Returns "" for everything
// else (stalls, injected faults, I/O — the retryable world).
func permanentClass(err error) string {
	var div *navierstokes.ErrDiverged
	switch {
	case errors.As(err, &div):
		return "diverged"
	case errors.Is(err, la.ErrBreakdown):
		return "breakdown"
	case errors.Is(err, scenario.ErrBadParams):
		return "bad-params"
	}
	return ""
}

// retryable reports whether a failed attempt is worth repeating. A
// cancelled or deadline-expired job is done deciding, and a permanent
// failure (numerical divergence, Krylov breakdown, bad parameters)
// reproduces deterministically; everything else — rank stalls, injected
// faults, transient scheduler overflow — may succeed on a fresh
// attempt.
func retryable(err error) bool {
	return err != nil && !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) && permanentClass(err) == ""
}

// lead is the single-flight leader's body: run the scenario, retrying
// transient failures with backoff. The first attempt uses the ticket
// reserved at submission; each later attempt enqueues a fresh one, and
// no ticket is held while backing off, so a job waiting out a fault
// consumes neither run capacity nor a queue slot.
func (s *Server) lead(ctx context.Context, job *Job, sc scenario.Scenario, ticket *Ticket) (*scenario.Artifact, error) {
	for attempt := 0; ; attempt++ {
		art, err := func() (*scenario.Artifact, error) {
			if ticket == nil {
				var e error
				if ticket, e = s.sched.Enqueue(job.cost); e != nil {
					return nil, e
				}
			}
			t := ticket
			ticket = nil
			defer t.Done()
			return s.attemptOnce(ctx, job, sc, t)
		}()
		if err == nil || !retryable(err) || attempt >= s.retry.max {
			return art, err
		}
		d := s.retry.delay(attempt + 1)
		job.noteRetry(err)
		s.retrying.Add(1)
		s.logf("job %s: attempt %d failed (%v), retrying in %v", job.id, attempt+1, err, d)
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
			s.retrying.Add(-1)
		case <-ctx.Done():
			timer.Stop()
			s.retrying.Add(-1)
			return nil, ctx.Err()
		}
	}
}

// attemptOnce acquires run capacity and executes the scenario once,
// with the job's telemetry sink, checkpoint plans and watchdog deadline
// on the context as one coupling.Env.
func (s *Server) attemptOnce(ctx context.Context, job *Job, sc scenario.Scenario, ticket *Ticket) (*scenario.Artifact, error) {
	if err := ticket.Acquire(ctx); err != nil {
		return nil, err
	}
	job.setRunning()
	s.logf("job %s: running", job.id)
	env := coupling.Env{Watchdog: s.watchdog}
	if s.tstore != nil {
		// One sink for the job's whole life: run numbering continues
		// across retries, so no attempt can collide with a run an
		// earlier attempt already persisted.
		job.mu.Lock()
		if job.sink == nil {
			job.sink = &jobSink{store: s.tstore, job: job.id, scenario: job.scenario}
			job.sink.admitted(time.Since(job.created))
		}
		env.Telemetry = job.sink
		job.mu.Unlock()
	}
	if s.ckptDir != "" && s.ckptEvery > 0 {
		// A fresh provider per attempt restarts the path sequence at
		// <job>.ckpt, so run k of this attempt resumes exactly the file
		// run k of the previous attempt was writing.
		env.Checkpoints = &checkpoint.DirProvider{
			Dir: s.ckptDir, Base: job.id, Every: s.ckptEvery, Keep: s.ckptKeep,
			OnError: func(err error) { s.logf("job %s: checkpoint: %v", job.id, err) },
		}
	}
	ctx = coupling.WithEnv(ctx, env)
	r := &scenario.Runner{Pool: s.pool, Progress: job.record}
	results, err := r.Run(ctx, []scenario.Scenario{sc}, job.params)
	if err != nil && (len(results) == 0 || results[0].Err == nil) {
		return nil, err
	}
	if res := results[0]; res.Err != nil {
		return nil, res.Err
	}
	return results[0].Artifact, nil
}

// noteRetry moves the job into the retrying state.
func (j *Job) noteRetry(err error) {
	j.mu.Lock()
	j.retries++
	j.state = StateRetrying
	j.err = err // surfaced by status while backing off; cleared on success
	j.mu.Unlock()
}

// --- drain ---

// BeginDrain stops admission: subsequent POST /jobs get 503 with a
// Retry-After, and /healthz reports draining. Jobs already accepted run
// to completion; the caller decides how long to wait before Close.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logf("server: draining (no new jobs)")
	}
}

// ActiveJobs counts jobs not yet in a terminal state.
func (s *Server) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		switch j.snapshotState() {
		case StateDone, StateFailed, StateCancelled:
		default:
			n++
		}
	}
	return n
}

// --- manifests and restart recovery ---

// jobManifest is the on-disk record of an accepted job
// (<dir>/<id>.job.json). It carries exactly what resubmission needs;
// run state lives in the checkpoint files next to it.
type jobManifest struct {
	ID         string              `json:"id"`
	Scenario   string              `json:"scenario"`
	Options    scenario.ParamsSpec `json:"options"`
	DeadlineMS float64             `json:"deadlineMs,omitempty"`
}

// writeManifest persists the job's manifest (best-effort: a manifest
// write failure must not fail the submission).
func (s *Server) writeManifest(job *Job, spec scenario.ParamsSpec) {
	if s.ckptDir == "" {
		return
	}
	man := jobManifest{ID: job.id, Scenario: job.scenario, Options: spec,
		DeadlineMS: float64(job.deadline) / float64(time.Millisecond)}
	raw, err := json.Marshal(man)
	if err == nil {
		err = os.WriteFile(s.manifestPath(job.id), raw, 0o644)
	}
	if err != nil {
		s.logf("job %s: manifest: %v", job.id, err)
	}
}

func (s *Server) manifestPath(id string) string {
	return filepath.Join(s.ckptDir, id+".job.json")
}

// cleanupJob removes an ending job's manifest and checkpoint files,
// before its terminal state is published: a finished job must not be
// resurrected by the next restart, and its checkpoints are dead weight. Failures only log — the files will be
// retried for deletion never, but they are harmless (the fingerprint
// guards against a stale resume).
func (s *Server) cleanupJob(job *Job) {
	if s.ckptDir == "" {
		return
	}
	if err := os.Remove(s.manifestPath(job.id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.logf("job %s: cleanup manifest: %v", job.id, err)
	}
	for _, f := range s.checkpointFiles(job.id) {
		if err := os.Remove(f); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.logf("job %s: cleanup checkpoint: %v", job.id, err)
		}
	}
}

// checkpointFiles lists the job's checkpoint files: the DirProvider
// naming (<id>.ckpt, <id>.2.ckpt, ...) plus each file's generation
// chain (<id>.ckpt.1, ...) and atomic-write droppings. Quarantined
// *.corrupt files are excluded — they are operator evidence and outlive
// the job (the integrity scrub reports them; an operator deletes them).
func (s *Server) checkpointFiles(id string) []string {
	first, _ := filepath.Glob(filepath.Join(s.ckptDir, id+".ckpt*"))
	rest, _ := filepath.Glob(filepath.Join(s.ckptDir, id+".*.ckpt*"))
	all := append(first, rest...)
	out := all[:0]
	for _, f := range all {
		if strings.HasSuffix(f, ".corrupt") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// HasCheckpoints reports whether any resumable checkpoint exists for
// the job — the liveness test telemetry retention consults before
// deleting a run (a run whose job can still resume must keep its
// telemetry). Quarantined and half-written files do not count.
func (s *Server) HasCheckpoints(jobID string) bool {
	if s.ckptDir == "" {
		return false
	}
	for _, f := range s.checkpointFiles(jobID) {
		if !strings.HasSuffix(f, ".tmp") {
			return true
		}
	}
	return false
}

// Recover scans the checkpoint directory for manifests of jobs that
// were alive when the previous process died and resubmits them under
// their original IDs, so their checkpoints resume seamlessly and old
// job URLs keep working. Returns the recovered IDs in submission
// order. Call once, before serving traffic.
func (s *Server) Recover() []string {
	if s.ckptDir == "" {
		return nil
	}
	paths, _ := filepath.Glob(filepath.Join(s.ckptDir, "*.job.json"))
	mans := make([]jobManifest, 0, len(paths))
	maxID := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			s.logf("recover: %v", err)
			continue
		}
		var man jobManifest
		if err := json.Unmarshal(raw, &man); err != nil || man.ID == "" || man.Scenario == "" {
			s.logf("recover: bad manifest %s: %v", p, err)
			continue
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(man.ID, "job-")); err == nil && n > maxID {
			maxID = n
		}
		mans = append(mans, man)
	}
	// Original submission order, so recovered IDs and scheduler FIFO
	// order both match the pre-crash world.
	sort.Slice(mans, func(i, j int) bool { return mans[i].ID < mans[j].ID })
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()

	var ids []string
	for _, man := range mans {
		sc, err := s.reg.Get(man.Scenario)
		if err != nil {
			s.logf("recover %s: %v", man.ID, err)
			os.Remove(s.manifestPath(man.ID)) //nolint:errcheck
			continue
		}
		params, err := man.Options.Params()
		if err != nil {
			s.logf("recover %s: %v", man.ID, err)
			os.Remove(s.manifestPath(man.ID)) //nolint:errcheck
			continue
		}
		job, err := s.submitJob(sc, params, man.Options, submitOpts{
			id:       man.ID,
			deadline: time.Duration(man.DeadlineMS * float64(time.Millisecond)),
		})
		if err != nil {
			// Queue full: leave the manifest for the next restart.
			s.logf("recover %s: %v", man.ID, err)
			continue
		}
		ids = append(ids, job.id)
		s.logf("job %s: recovered", job.id)
	}
	return ids
}
