package service

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// jobSink is the telemetry.Sink the server attaches to a leader job's
// context: it stamps the owning job (and scenario) onto every run the
// scenario's simulations record, names the runs after the job ID (the
// first run is the job ID itself, later ones <job>.2, <job>.3, ... — a
// calibration probe plus its measured run, or a sweep's grid points),
// and prepends the job's scheduler admission event to the first run.
// Deduplicated jobs adopt the leader's artifact without running, so
// they record no runs of their own.
type jobSink struct {
	store    *telemetry.Store
	job      string
	scenario string

	mu    sync.Mutex
	n     int             // runs begun so far
	extra []telemetry.Row // scheduler rows, drained onto the first run
}

// admitted records how long the job waited for run capacity.
func (js *jobSink) admitted(wait time.Duration) {
	js.mu.Lock()
	js.extra = append(js.extra, telemetry.Row{
		Rank: telemetry.WorldRank, Kind: telemetry.KindQueueWait,
		Start: 0, End: wait.Seconds(),
	})
	js.mu.Unlock()
}

// BeginRun implements telemetry.Sink.
func (js *jobSink) BeginRun(meta telemetry.RunMeta) (*telemetry.RunWriter, error) {
	js.mu.Lock()
	js.n++
	run := js.job
	if js.n > 1 {
		run = fmt.Sprintf("%s.%d", js.job, js.n)
	}
	extra := js.extra
	js.extra = nil
	js.mu.Unlock()
	meta.Run = run
	meta.Job = js.job
	meta.Scenario = js.scenario
	w, err := js.store.BeginRun(meta)
	if err != nil {
		return nil, err
	}
	// Scheduler rows lead the run: rank WorldRank at start 0, which
	// keeps the chunk's rank-grouped, time-sorted append order intact.
	w.Append(extra...)
	return w, nil
}

// pruneTelemetry enforces the TelemetryMaxRuns retention bound after a
// job reaches a terminal state. A run is deletable only when its owning
// job has no checkpoints left on disk: checkpoints mean the job is
// interrupted but resumable, and a resumed attempt appends to the same
// telemetry timeline the earlier attempt started.
func (s *Server) pruneTelemetry() {
	if s.tstore == nil || s.maxRuns <= 0 {
		return
	}
	for _, run := range s.tstore.Prune(s.maxRuns, func(m telemetry.RunMeta) bool {
		return m.Job != "" && s.HasCheckpoints(m.Job)
	}) {
		s.logf("telemetry: retention pruned run %s", run)
	}
}

// --- wire types (shared with `respira trace`) ---

// RowWire is one telemetry row on the wire. The numeric phase field
// reconstructs rows exactly; kind and phaseName are for humans. Floats
// survive the JSON round trip bit-exactly (shortest-representation
// encoding), which is what keeps a remotely fetched timeline rendering
// byte-identically to the stored one.
type RowWire struct {
	Rank      int32   `json:"rank"`
	Step      int32   `json:"step,omitempty"`
	Kind      string  `json:"kind"`
	Phase     uint8   `json:"phase"`
	PhaseName string  `json:"phaseName,omitempty"`
	Aux       int32   `json:"aux,omitempty"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
}

// RowToWire converts a stored row for the wire.
func RowToWire(r telemetry.Row) RowWire {
	rw := RowWire{
		Rank: r.Rank, Step: r.Step, Kind: r.Kind.String(),
		Phase: uint8(r.Phase), Aux: r.Aux, Start: r.Start, End: r.End,
	}
	if r.Kind == telemetry.KindPhase {
		rw.PhaseName = r.Phase.String()
	}
	return rw
}

// Row inverts RowToWire (unknown kind strings decode as phase rows).
func (rw RowWire) Row() telemetry.Row {
	k, _ := telemetry.ParseKind(rw.Kind)
	return telemetry.Row{
		Rank: rw.Rank, Step: rw.Step, Kind: k,
		Phase: trace.Phase(rw.Phase), Aux: rw.Aux, Start: rw.Start, End: rw.End,
	}
}

// TraceWire is the GET /jobs/{id}/trace and /telemetry/runs/{run}
// response: one run's metadata plus its (possibly filtered) rows.
type TraceWire struct {
	Meta telemetry.RunMeta `json:"meta"`
	Rows []RowWire         `json:"rows"`
}

// PhaseWire is one phase line of GET /jobs/{id}/phases: the per-phase
// makespan contribution (max over ranks), the paper's Ln load-balance
// metric (eq. 9), and the share of step time.
type PhaseWire struct {
	Phase   string  `json:"phase"`
	Ln      float64 `json:"ln"`
	Percent float64 `json:"percent"`
	Max     float64 `json:"max"`
}

// PhasesWire is the GET /jobs/{id}/phases response.
type PhasesWire struct {
	Job      string      `json:"job,omitempty"`
	Run      string      `json:"run"`
	Ranks    int         `json:"ranks"`
	Makespan float64     `json:"makespan"`
	Phases   []PhaseWire `json:"phases"`
}

// PhasesFromTrace reduces a trace to the phases report. Phases that
// never ran are omitted.
func PhasesFromTrace(tr *trace.Trace, meta telemetry.RunMeta) PhasesWire {
	out := PhasesWire{
		Job: meta.Job, Run: meta.Run,
		Ranks: len(tr.Ranks), Makespan: tr.MaxClock(),
	}
	phaseTimes := tr.PhaseTimes()
	names := make([]string, trace.NumPhases)
	perPhase := make([][]float64, trace.NumPhases)
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		names[p] = p.String()
		perPhase[p] = phaseTimes[p]
	}
	rows := metrics.PhaseTable(names, perPhase)
	for p, row := range rows {
		m := 0.0
		for _, t := range perPhase[p] {
			if t > m {
				m = t
			}
		}
		if m == 0 {
			continue
		}
		out.Phases = append(out.Phases, PhaseWire{
			Phase: row.Name, Ln: row.Ln, Percent: row.Percent, Max: m,
		})
	}
	return out
}

// --- handlers ---

type healthJSON struct {
	OK        bool   `json:"ok"`
	Status    string `json:"status"` // "ok", "degraded" (jobs retrying), "draining"
	Jobs      int    `json:"jobs"`
	Retrying  int    `json:"retrying,omitempty"`
	Telemetry bool   `json:"telemetry"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	out := healthJSON{OK: true, Status: "ok", Jobs: n,
		Retrying: int(s.retrying.Load()), Telemetry: s.tstore != nil}
	switch {
	case s.draining.Load():
		// Still answering (running jobs are being finished), but load
		// balancers should route new work elsewhere.
		out.OK = false
		out.Status = "draining"
	case out.Retrying > 0:
		out.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, out)
}

type statsJSON struct {
	Scheduler schedStatsJSON `json:"scheduler"`
	Cache     cacheStatsJSON `json:"cache"`
	Jobs      map[string]int `json:"jobs"`
	Runs      int            `json:"runs,omitempty"`
	// PermanentFailures distinguishes "retrying a transient fault"
	// (healthz degraded, will recover) from "scenarios
	// deterministically diverging" (inputs are wrong; rerouting to
	// another instance will not help).
	PermanentFailures permFailuresJSON `json:"permanentFailures"`
}

type schedStatsJSON struct {
	Capacity int64 `json:"capacity"`
	UsedCost int64 `json:"usedCost"`
	Running  int   `json:"running"`
	Queued   int   `json:"queued"`
	Waiting  int   `json:"waiting"`
}

type cacheStatsJSON struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	hits, misses := s.cache.Stats()
	out := statsJSON{
		Scheduler: schedStatsJSON{
			Capacity: st.Capacity, UsedCost: st.UsedCost,
			Running: st.Running, Queued: st.Queued, Waiting: st.Waiting,
		},
		Cache:             cacheStatsJSON{Hits: hits, Misses: misses, Entries: s.cache.Len()},
		Jobs:              make(map[string]int),
		PermanentFailures: s.permFail.snapshot(),
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		out.Jobs[string(j.snapshotState())]++
	}
	s.mu.Unlock()
	if s.tstore != nil {
		out.Runs = s.tstore.RunCount()
	}
	writeJSON(w, http.StatusOK, out)
}

// snapshotState reads the job state under the job's own lock (the
// server lock does not cover job fields).
func (j *Job) snapshotState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// telemetryStore 404s when the server runs without a store.
func (s *Server) telemetryStore(w http.ResponseWriter) *telemetry.Store {
	if s.tstore == nil {
		writeError(w, http.StatusNotFound, "telemetry is not enabled on this server")
	}
	return s.tstore
}

func (s *Server) handleTelemetryRuns(w http.ResponseWriter, r *http.Request) {
	st := s.telemetryStore(w)
	if st == nil {
		return
	}
	runs := st.Runs()
	// Newest first: a client polling for "the run my job just recorded"
	// reads index 0 instead of paging to the tail.
	out := make([]telemetry.RunMeta, 0, len(runs))
	for i := len(runs) - 1; i >= 0; i-- {
		out = append(out, runs[i])
	}
	writeJSON(w, http.StatusOK, out)
}

// parseQuery builds a row query from from=, to= and rank= URL
// parameters; a parse failure writes a 400 and reports ok == false.
func parseQuery(w http.ResponseWriter, r *http.Request) (telemetry.Query, bool) {
	var q telemetry.Query
	vals := r.URL.Query()
	for _, key := range []string{"from", "to"} {
		raw := vals.Get(key)
		if raw == "" {
			continue
		}
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil || !(f >= 0) || math.IsInf(f, 1) {
			writeError(w, http.StatusBadRequest, "bad %s %q: want a finite nonnegative number", key, raw)
			return q, false
		}
		if key == "from" {
			q.From = f
		} else {
			q.To = f
		}
	}
	if raw := vals.Get("rank"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 32)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad rank %q: want an integer (-1 selects run-scoped rows)", raw)
			return q, false
		}
		q.Rank = int32(n)
		q.HasRank = true
	}
	return q, true
}

// writeTraceWire queries one run and writes the TraceWire response.
func writeTraceWire(w http.ResponseWriter, st *telemetry.Store, run string, q telemetry.Query) {
	meta, ok := st.Meta(run)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", run)
		return
	}
	rows, err := st.Query(run, q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := TraceWire{Meta: meta, Rows: make([]RowWire, len(rows))}
	for i, row := range rows {
		out.Rows[i] = RowToWire(row)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTelemetryRun(w http.ResponseWriter, r *http.Request) {
	st := s.telemetryStore(w)
	if st == nil {
		return
	}
	q, ok := parseQuery(w, r)
	if !ok {
		return
	}
	writeTraceWire(w, st, r.PathValue("run"), q)
}

// lastRunOf resolves a job's most recent recorded run — for a measured
// scenario, the measured run rather than its calibration probe. The
// empty string means the job recorded nothing (deduplicated, cache
// hit, modeled scenario, or still queued).
func (s *Server) lastRunOf(job string) string {
	last := ""
	for _, meta := range s.tstore.Runs() {
		if meta.Job == job {
			last = meta.Run
		}
	}
	return last
}

// jobRun resolves {id} to the job's last recorded run, writing the
// error response when the job is unknown or recorded nothing.
func (s *Server) jobRun(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.telemetryStore(w) == nil {
		return "", false
	}
	j := s.job(w, r)
	if j == nil {
		return "", false
	}
	run := s.lastRunOf(j.id)
	if run == "" {
		writeError(w, http.StatusNotFound,
			"job %s recorded no telemetry (deduplicated, served from cache, modeled, or not yet run)", j.id)
		return "", false
	}
	return run, true
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := s.jobRun(w, r)
	if !ok {
		return
	}
	q, ok := parseQuery(w, r)
	if !ok {
		return
	}
	writeTraceWire(w, s.tstore, run, q)
}

func (s *Server) handleJobPhases(w http.ResponseWriter, r *http.Request) {
	run, ok := s.jobRun(w, r)
	if !ok {
		return
	}
	tr, meta, err := s.tstore.Trace(run)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, PhasesFromTrace(tr, meta))
}
