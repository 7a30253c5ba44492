package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/tasking"
	"repro/internal/telemetry"
	"repro/scenario"
)

// Config sizes a Server. The zero value of every field has a sensible
// default; Registry defaults to scenario.Default.
type Config struct {
	// Registry is the scenario catalog served by GET /scenarios and
	// resolved by POST /jobs.
	Registry *scenario.Registry
	// Capacity is the scheduler's total cost budget (cost units of
	// concurrently running scenario work). Default 2x the cost of one
	// default-sized measured run.
	Capacity int64
	// MaxQueue is how many accepted jobs may wait for capacity before
	// POST /jobs returns 429. Default 64.
	MaxQueue int
	// CacheTTL is how long a finished artifact is served for identical
	// resubmissions before it is recomputed. Default 15 minutes.
	CacheTTL time.Duration
	// RunnerPool, when set, is the shared worker pool injected into every
	// job's Runner, so a server running thousands of jobs does not build
	// and tear down a pool per request. The caller owns (and closes) it.
	RunnerPool *tasking.Pool
	// Logf, when set, receives one line per job state change.
	Logf func(format string, args ...any)
	// Telemetry, when set, persists every leader job's simulation runs
	// (rank timelines, step and DLB-migration markers, scheduler
	// admission events) under the job's ID and serves them at
	// GET /jobs/{id}/trace, GET /jobs/{id}/phases and GET /telemetry/runs.
	// nil disables recording and 404s those endpoints.
	Telemetry *telemetry.Store
	// TelemetryMaxRuns bounds how many runs the telemetry store retains:
	// after each job reaches a terminal state, the oldest runs beyond
	// the bound are deleted. Runs whose owning job still has checkpoints
	// on disk are never deleted — that job is interrupted but resumable,
	// and its telemetry must survive to be continued. 0 keeps everything.
	TelemetryMaxRuns int
	// MaxRetries is how many times a job whose attempt fails with a
	// retryable error (rank stall, injected fault, transient overflow —
	// anything but cancellation or a blown deadline) is retried with
	// capped exponential backoff: 250ms doubling up to 10s, each delay
	// jittered within its upper half. 0 disables retries.
	MaxRetries int
	// DefaultDeadline bounds jobs that do not send their own deadlineMs
	// in POST /jobs. 0 leaves such jobs unbounded.
	DefaultDeadline time.Duration
	// CheckpointDir, when set, holds job manifests (<id>.job.json) and
	// run checkpoints (<id>.ckpt, <id>.2.ckpt, ...): accepted jobs
	// survive a process crash (Recover resubmits them under their
	// original IDs) and interrupted simulations resume mid-run.
	CheckpointDir string
	// CheckpointEvery is the capture period in simulation steps for
	// jobs run with CheckpointDir set (default 25).
	CheckpointEvery int
	// CheckpointKeep is how many snapshot generations each run retains
	// (<id>.ckpt, <id>.ckpt.1, ...). Resume walks the chain newest-first
	// past corrupt generations, quarantining them as *.corrupt, so a
	// flipped bit in the newest snapshot costs one checkpoint interval
	// instead of the whole run. Default 2; 1 keeps only the newest.
	CheckpointKeep int
	// Watchdog bounds every blocking MPI operation of every job's
	// simulations; a stalled rank surfaces as a typed error the retry
	// loop acts on, instead of a hung job. 0 disables.
	Watchdog time.Duration
}

// Cost of one default-sized measured run (the table1 defaults: 96 ranks
// x 2 steps x 4 mesh generations); modeled/report scenarios cost a
// nominal unit. See EstimateCost.
const (
	defaultRanks   = 96
	defaultSteps   = 2
	defaultGens    = 4
	defaultRunCost = defaultRanks * defaultSteps * defaultGens
)

// EstimateCost prices a submission in scheduler cost units. A scenario
// that knows its own parameter-dependent cost (scenario.Coster — the
// sweep family, whose work is proportional to grid cardinality, not one
// run) is asked directly. Otherwise: measured scenarios (the ones that
// execute a real simulation) cost ranks x steps x mesh generations with
// unset params at their Table-1 defaults; modeled figures and report
// scenarios, which finish in milliseconds, cost a nominal single unit.
func EstimateCost(sc scenario.Scenario, p scenario.Params) int64 {
	if c, ok := sc.(scenario.Coster); ok {
		if cost := c.EstimateCost(p); cost > 0 {
			return cost
		}
		return 1
	}
	measured := false
	for _, t := range sc.Tags() {
		if t == "measured" {
			measured = true
			break
		}
	}
	if !measured {
		return 1
	}
	ranks, steps, gens := defaultRanks, defaultSteps, defaultGens
	if p.Ranks > 0 {
		ranks = p.Ranks
	}
	if p.Steps > 0 {
		steps = p.Steps
	}
	if p.MeshGenerations > 0 {
		gens = p.MeshGenerations
	}
	return int64(ranks) * int64(steps) * int64(gens)
}

// JobState is a job's lifecycle position.
type JobState string

// Job states. Queued covers both waiting-for-capacity and waiting on a
// deduplicated identical run; a job that never ran itself but adopted a
// shared artifact goes queued -> done with Shared set. Retrying means
// the last attempt failed and the job is backing off before the next
// one (holding no scheduler capacity meanwhile).
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateRetrying  JobState = "retrying"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Job is one accepted submission.
type Job struct {
	mu        sync.Mutex
	id        string
	scenario  string
	params    scenario.Params
	key       string
	cost      int64
	state     JobState
	shared    bool // finished without running: adopted a deduplicated run
	recovered bool // resubmitted from a manifest after a process restart
	retries   int  // attempts beyond the first
	deadline  time.Duration
	sink      *jobSink // telemetry identity, shared across attempts
	events    []scenario.Event
	artifact  *scenario.Artifact
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
}

// Server is the HTTP job service over a scenario registry.
type Server struct {
	reg       *scenario.Registry
	sched     *Scheduler
	cache     *memo.Cache[string, *scenario.Artifact]
	pool      *tasking.Pool
	logf      func(string, ...any)
	tstore    *telemetry.Store
	maxRuns   int
	retry     retryPolicy
	deadline  time.Duration
	ckptDir   string
	ckptEvery int
	ckptKeep  int
	watchdog  time.Duration

	draining atomic.Bool
	retrying atomic.Int32 // jobs currently backing off
	permFail permFailures // last-N permanent failures, for /stats

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
}

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = scenario.Default
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2 * defaultRunCost
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 15 * time.Minute
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 25
	}
	if cfg.CheckpointKeep <= 0 {
		cfg.CheckpointKeep = 2
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		reg:       cfg.Registry,
		sched:     NewScheduler(cfg.Capacity, cfg.MaxQueue),
		cache:     memo.New[string, *scenario.Artifact](cfg.CacheTTL),
		pool:      cfg.RunnerPool,
		logf:      logf,
		tstore:    cfg.Telemetry,
		maxRuns:   cfg.TelemetryMaxRuns,
		retry:     retryPolicy{max: cfg.MaxRetries, base: 250 * time.Millisecond, cap: 10 * time.Second},
		deadline:  cfg.DefaultDeadline,
		ckptDir:   cfg.CheckpointDir,
		ckptEvery: cfg.CheckpointEvery,
		ckptKeep:  cfg.CheckpointKeep,
		watchdog:  cfg.Watchdog,
		jobs:      make(map[string]*Job),
	}
}

// Close cancels every unfinished job. In-flight simulations stop at
// their next step boundary.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.cancel()
	}
}

// Scheduler exposes the admission controller (for stats and tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /jobs/{id}/phases", s.handleJobPhases)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /telemetry/runs", s.handleTelemetryRuns)
	mux.HandleFunc("GET /telemetry/runs/{run}", s.handleTelemetryRun)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /admin/integrity", s.handleIntegrity)
	return mux
}

// --- wire types ---

// maxDeadlineMS is the largest deadlineMs a time.Duration can hold.
const maxDeadlineMS = float64(math.MaxInt64 / int64(time.Millisecond))

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Scenario string              `json:"scenario"`
	Options  scenario.ParamsSpec `json:"options"`
	// DeadlineMS bounds the job's total lifetime (queueing, retries and
	// all) in milliseconds; past it the job fails with a deadline
	// error. 0 falls back to the server's DefaultDeadline.
	DeadlineMS float64 `json:"deadlineMs,omitempty"`
}

type scenarioJSON struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Tags        []string `json:"tags"`
}

type eventJSON struct {
	Scenario  string  `json:"scenario"`
	Done      bool    `json:"done"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsedMs,omitempty"`
}

type jobJSON struct {
	ID        string      `json:"id"`
	Scenario  string      `json:"scenario"`
	State     JobState    `json:"state"`
	Cost      int64       `json:"cost"`
	Shared    bool        `json:"shared,omitempty"`
	Recovered bool        `json:"recovered,omitempty"`
	Retries   int         `json:"retries,omitempty"`
	Error     string      `json:"error,omitempty"`
	Created   time.Time   `json:"created"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	ElapsedMS float64     `json:"elapsedMs,omitempty"`
	Events    []eventJSON `json:"events,omitempty"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // status already committed
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []scenarioJSON
	for _, sc := range s.reg.Scenarios() {
		out = append(out, scenarioJSON{Name: sc.Name(), Description: sc.Describe(), Tags: sc.Tags()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleJobList serves GET /jobs. Without parameters the full listing
// comes oldest first (submission order). ?state= keeps only jobs in
// that state; ?limit=N flips to newest first and truncates — the shape
// an operator polling "what just happened" wants.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	var stateFilter JobState
	if raw := vals.Get("state"); raw != "" {
		switch JobState(raw) {
		case StateQueued, StateRunning, StateRetrying, StateDone, StateFailed, StateCancelled:
			stateFilter = JobState(raw)
		default:
			writeError(w, http.StatusBadRequest,
				"unknown state %q (want queued, running, retrying, done, failed, or cancelled)", raw)
			return
		}
	}
	limit := -1
	if raw := vals.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q: want a nonnegative integer", raw)
			return
		}
		limit = n
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	if limit >= 0 {
		for i, j := 0, len(jobs)-1; i < j; i, j = i+1, j-1 {
			jobs[i], jobs[j] = jobs[j], jobs[i]
		}
	}
	out := make([]jobJSON, 0, len(jobs))
	for _, j := range jobs {
		snap := j.snapshot(false)
		if stateFilter != "" && snap.State != stateFilter {
			continue
		}
		if limit >= 0 && len(out) >= limit {
			break
		}
		out = append(out, snap)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// SIGTERM drain: running jobs finish, new work goes elsewhere.
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "server is draining, retry against a healthy instance")
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sc, err := s.reg.Get(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	params, err := req.Options.Params()
	if err != nil {
		// The same validation the respira subcommands apply to their flags (exit 2).
		writeError(w, http.StatusBadRequest, "bad options: %v", err)
		return
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > maxDeadlineMS {
		// Past maxDeadlineMS the conversion below would wrap to a
		// negative duration, which would silently mean "no deadline".
		writeError(w, http.StatusBadRequest, "bad deadlineMs %g: want a number in [0, %g]", req.DeadlineMS, maxDeadlineMS)
		return
	}
	deadline := time.Duration(req.DeadlineMS * float64(time.Millisecond))
	if deadline == 0 {
		deadline = s.deadline
	}
	job, err := s.submitJob(sc, params, req.Options, submitOpts{deadline: deadline})
	if errors.Is(err, ErrQueueFull) {
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, job.snapshot(true))
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot(true))
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	switch format {
	case "text", "json", "csv":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want text, json, or csv)", format)
		return
	}
	j.mu.Lock()
	state, art, jerr := j.state, j.artifact, j.err
	j.mu.Unlock()
	if state != StateDone {
		msg := fmt.Sprintf("job %s is %s, artifact not available", j.id, state)
		if jerr != nil {
			msg += ": " + jerr.Error()
		}
		writeError(w, http.StatusConflict, "%s", msg)
		return
	}
	switch format {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, art.Text())
	case "json":
		out, err := art.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out) //nolint:errcheck
	case "csv":
		out, err := art.CSV()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, out)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	// Cancelling a finished job is a no-op; an unfinished one stops at
	// its next step boundary and reports state "cancelled".
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshot(true))
}

// --- job lifecycle ---

// submitOpts carries the submission variants: a recovered job reuses
// its pre-crash ID; a fresh one gets the next.
type submitOpts struct {
	id       string
	deadline time.Duration
}

// submitJob admits and launches one job. The scheduler reservation is
// synchronous (429 propagates as ErrQueueFull before the job exists);
// execution is asynchronous behind the returned job's ID.
func (s *Server) submitJob(sc scenario.Scenario, params scenario.Params, spec scenario.ParamsSpec, opts submitOpts) (*Job, error) {
	cost := EstimateCost(sc, params)
	ticket, err := s.sched.Enqueue(cost)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		scenario:  sc.Name(),
		params:    params,
		key:       sc.Name() + "\x00" + params.CanonicalKey(),
		cost:      cost,
		state:     StateQueued,
		recovered: opts.id != "",
		deadline:  opts.deadline,
		created:   time.Now(),
		cancel:    cancel,
	}
	s.mu.Lock()
	if opts.id != "" {
		if s.jobs[opts.id] != nil {
			s.mu.Unlock()
			ticket.Done()
			cancel()
			return nil, fmt.Errorf("service: job %s already exists", opts.id)
		}
		job.id = opts.id
	} else {
		s.nextID++
		job.id = fmt.Sprintf("job-%d", s.nextID)
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.mu.Unlock()
	s.writeManifest(job, spec)
	s.logf("job %s: accepted scenario=%s cost=%d key=%q", job.id, job.scenario, cost, job.key)
	go s.run(ctx, job, sc, ticket)
	return job, nil
}

// run executes one job to completion. The artifact cache wraps the
// scheduler: only the single-flight leader for a key acquires run
// capacity and executes the scenario (retrying transient failures —
// see lead); deduplicated jobs wait on the leader's entry holding at
// most a queue slot, and adopt its artifact.
func (s *Server) run(ctx context.Context, job *Job, sc scenario.Scenario, ticket *Ticket) {
	defer job.cancel() // release the context's resources
	defer ticket.Done()
	if job.deadline > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, job.deadline)
		defer cancelT()
	}
	art, err := s.cache.Do(ctx, job.key, func(ctx context.Context) (*scenario.Artifact, error) {
		return s.lead(ctx, job, sc, ticket)
	})
	// The manifest and checkpoints go before the terminal state is
	// published: a client that has seen the job end must not find the
	// files a restart would resubmit it from.
	s.cleanupJob(job)
	job.finish(art, err)
	if err != nil {
		s.notePermanentFailure(job, err)
	}
	s.pruneTelemetry()
	s.logf("job %s: %s", job.id, job.snapshot(false).State)
}

// record appends one progress event (a Runner.Progress callback).
func (j *Job) record(ev scenario.Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.mu.Unlock()
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish resolves the job from the cache.Do outcome: success (own run or
// adopted shared artifact), cancellation, deadline expiry, or failure.
func (j *Job) finish(art *scenario.Artifact, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.shared = j.state == StateQueued // never ran itself: deduplicated
		j.state = StateDone
		j.artifact = art
		j.err = nil // clear any retried-through attempt error
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
	case errors.Is(err, context.DeadlineExceeded):
		// The job's own deadline (or the submitter's context) ran out:
		// an operational failure, not an operator cancellation.
		j.state = StateFailed
		j.err = fmt.Errorf("deadline exceeded after %d retries: %w", j.retries, err)
	default:
		j.state = StateFailed
		j.err = err
	}
}

// snapshot renders the job for the wire. withEvents includes the
// progress event log (job detail); listings omit it.
func (j *Job) snapshot(withEvents bool) jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := jobJSON{
		ID:        j.id,
		Scenario:  j.scenario,
		State:     j.state,
		Cost:      j.cost,
		Shared:    j.shared,
		Recovered: j.recovered,
		Retries:   j.retries,
		Created:   j.created,
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		out.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.Finished = &t
		ref := j.started
		if ref.IsZero() {
			ref = j.created
		}
		out.ElapsedMS = float64(j.finished.Sub(ref)) / float64(time.Millisecond)
	}
	if withEvents {
		for _, ev := range j.events {
			ej := eventJSON{Scenario: ev.Scenario, Done: ev.Done,
				ElapsedMS: float64(ev.Elapsed) / float64(time.Millisecond)}
			if ev.Err != nil {
				ej.Error = ev.Err.Error()
			}
			out.Events = append(out.Events, ej)
		}
	}
	return out
}

// String renders a short human-readable job line (for logs).
func (j *Job) String() string {
	snap := j.snapshot(false)
	return strings.TrimSpace(fmt.Sprintf("%s %s [%s]", snap.ID, snap.Scenario, snap.State))
}
