// Permanent-failure accounting and the state-integrity scrub endpoint.
package service

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/integrity"
)

// permFailureWindow is how many recent permanent failures /stats lists
// individually (per-class totals are unbounded counters).
const permFailureWindow = 16

// permFailure records one job that failed permanently (no retries — the
// error reproduces deterministically).
type permFailure struct {
	Job      string    `json:"job"`
	Scenario string    `json:"scenario"`
	Class    string    `json:"class"` // "diverged", "breakdown", "bad-params"
	Error    string    `json:"error"`
	At       time.Time `json:"at"`
}

// permFailures is the server's bounded permanent-failure memory: a ring
// of the last permFailureWindow failures plus running per-class totals,
// surfaced in /stats so a load balancer can tell "retrying a transient
// fault" (degraded, will recover) from "scenarios deterministically
// diverging" (something is wrong with the inputs, not the instance).
type permFailures struct {
	mu     sync.Mutex
	total  int
	byType map[string]int
	last   []permFailure // newest last, at most permFailureWindow
}

func (p *permFailures) note(f permFailure) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.byType == nil {
		p.byType = make(map[string]int)
	}
	p.total++
	p.byType[f.Class]++
	p.last = append(p.last, f)
	if len(p.last) > permFailureWindow {
		p.last = p.last[len(p.last)-permFailureWindow:]
	}
}

// permFailuresJSON is the /stats "permanentFailures" section.
type permFailuresJSON struct {
	Total   int            `json:"total"`
	ByClass map[string]int `json:"byClass,omitempty"`
	Last    []permFailure  `json:"last,omitempty"`
}

func (p *permFailures) snapshot() permFailuresJSON {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := permFailuresJSON{Total: p.total}
	if len(p.byType) > 0 {
		out.ByClass = make(map[string]int, len(p.byType))
		for k, v := range p.byType {
			out.ByClass[k] = v
		}
	}
	out.Last = append(out.Last, p.last...)
	return out
}

// notePermanentFailure records a terminally failed job whose error
// classifies as permanent. Called from run() after finish.
func (s *Server) notePermanentFailure(job *Job, err error) {
	class := permanentClass(err)
	if class == "" {
		return
	}
	s.permFail.note(permFailure{
		Job: job.id, Scenario: job.scenario,
		Class: class, Error: err.Error(), At: time.Now(),
	})
	s.logf("job %s: permanent failure (%s): %v", job.id, class, err)
}

// integrityJSON is the GET /admin/integrity response.
type integrityJSON struct {
	OK          bool                `json:"ok"` // no corrupt or quarantined state found
	Checkpoints []integrity.Verdict `json:"checkpoints,omitempty"`
	Telemetry   []integrity.Verdict `json:"telemetry,omitempty"`
}

// handleIntegrity scrubs the server's persisted state on demand: every
// checkpoint generation under CheckpointDir and every chunk of every
// telemetry run. ok is false when anything is corrupt or quarantined —
// unsealed chunks are unverifiable, not bad.
func (s *Server) handleIntegrity(w http.ResponseWriter, r *http.Request) {
	out := integrityJSON{OK: true}
	if s.ckptDir != "" {
		cvs, err := integrity.ScanCheckpointDir(s.ckptDir)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "scan checkpoints: %v", err)
			return
		}
		out.Checkpoints = cvs
	}
	if s.tstore != nil {
		tvs, err := integrity.ScanStore(s.tstore)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "scan telemetry: %v", err)
			return
		}
		out.Telemetry = tvs
	}
	out.OK = !integrity.AnyBad(out.Checkpoints) && !integrity.AnyBad(out.Telemetry)
	writeJSON(w, http.StatusOK, out)
}
