package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/simmpi"
)

// spanKind names one kind of span; spanTable gives its printed name and
// the layer its self time is charged to.
type spanKind uint8

const (
	spanRun spanKind = iota
	spanNewSolver
	spanNewTracker
	spanStep
	spanSolverStep
	spanInject
	spanTrackerStep
	spanMigrate
	spanShipVelocity
	spanRecvVelocity
	spanStepSync
	spanMPIWait
	spanJob
	spanHTTPSubmit
	spanHTTPStatus
	spanHTTPArtifact
	spanHTTPPhases
	numSpanKinds
)

var spanTable = [numSpanKinds]struct{ name, layer string }{
	spanRun:          {"rank.run", "coupling"},
	spanNewSolver:    {"navierstokes.NewSolver", "navierstokes"},
	spanNewTracker:   {"particles.NewTracker", "particles"},
	spanStep:         {"step", "coupling"},
	spanSolverStep:   {"navierstokes.Solver.Step", "navierstokes"},
	spanInject:       {"particles.InjectAtInletCollectiveAt", "particles"},
	spanTrackerStep:  {"particles.Tracker.Step", "particles"},
	spanMigrate:      {"particles.Migrate", "particles"},
	spanShipVelocity: {"coupling.ship_velocity", "coupling"},
	spanRecvVelocity: {"coupling.recv_velocity", "coupling"},
	spanStepSync:     {"coupling.step_sync", "coupling"},
	spanMPIWait:      {"simmpi.blocking_call", "simmpi"},
	spanJob:          {"client.job", "service"},
	spanHTTPSubmit:   {"POST /jobs", "service"},
	spanHTTPStatus:   {"GET /jobs/{id}", "service"},
	spanHTTPArtifact: {"GET /jobs/{id}/artifact", "service"},
	spanHTTPPhases:   {"GET /jobs/{id}/phases", "service"},
}

// span is one timed interval on one rank. Parent indexes the same rank's
// slice (-1 for a root); times are nanoseconds since the recorder's t0.
type span struct {
	Kind       spanKind
	Parent     int32
	Start, End int64
}

// rankSpans records the spans of one rank goroutine. A rank's spans nest
// strictly (every MPI call is made from the rank goroutine), so a stack
// of open spans is all the parent bookkeeping needed, and no locking.
type rankSpans struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newRankSpans(t0 time.Time, capacity int) *rankSpans {
	return &rankSpans{t0: t0, spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

// begin and end on a nil recorder do nothing: the untraced reference
// run of the benchmark's own driver goes through the same calls.
func (r *rankSpans) begin(k spanKind) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{Kind: k, Parent: parent, Start: int64(time.Since(r.t0))})
}

func (r *rankSpans) end() {
	if r == nil {
		return
	}
	n := len(r.open) - 1
	r.spans[r.open[n]].End = int64(time.Since(r.t0))
	r.open = r.open[:n]
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Children of one parent never overlap (one stack per
// rank), so the subtraction is exact.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanHooks turns every blocking MPI call into a child span of whatever
// span the calling rank has open, then forwards to the run's real hooks
// (the DLB instance), so lending behaves exactly as in an untraced run.
type spanHooks struct {
	recs []*rankSpans
	next simmpi.BlockingHooks
}

func (h *spanHooks) IntoBlockingCall(rank int) {
	h.recs[rank].begin(spanMPIWait)
	h.next.IntoBlockingCall(rank)
}

func (h *spanHooks) OutOfBlockingCall(rank int) {
	h.next.OutOfBlockingCall(rank)
	h.recs[rank].end()
}

// writeTraceFile writes the in-memory spans of one traced run. Spans are
// rows [kind, parent, start_ns, end_ns]; "kinds" maps the first column to
// a span name and layer, and every row of a "ranks" entry shares that
// entry's rank and the file's run_id.
func writeTraceFile(path, workload, runID string, recs []*rankSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"schema\":\"repro/benchmark-trace/v1\",\"workload\":%q,\"run_id\":%q,\"columns\":[\"kind\",\"parent\",\"start_ns\",\"end_ns\"],\"kinds\":[", workload, runID)
	for k, info := range spanTable {
		if k > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "{\"name\":%q,\"layer\":%q}", info.name, info.layer)
	}
	w.WriteString("],\"ranks\":[")
	var buf []byte
	for rank, r := range recs {
		if rank > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "{\"rank\":%d,\"spans\":[", rank)
		for i, s := range r.spans {
			buf = buf[:0]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, int64(s.Kind), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(s.Parent), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.Start, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.End, 10)
			buf = append(buf, ']')
			w.Write(buf)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
