// Package telemetry is the reproduction's persistent run-event store:
// the Extrae-trace-on-disk analogue that turns per-run in-memory
// timelines into continuous observability for a service executing
// thousands of simulations.
//
// The design follows an append-optimized chunked-rows layout: every
// recorded run owns a sequence of size-bounded chunks of fixed-width
// binary rows, an in-memory index keeps per-chunk (rank, time) bounds,
// and retrieval by (run, time range, rank) scans only the chunks those
// bounds admit. Two backends exist — a lazily-flushed directory
// backend whose open path recovers from a crash-truncated tail chunk by
// dropping the incomplete final row, and a pure in-memory backend for
// tests.
//
// Recording stays off the simulation hot path by contract: producers
// (internal/coupling) drain whole rank timelines into a buffered
// RunWriter at run end, so the steady-state step loop never touches the
// store, and appends amortize to ~0 allocations per event.
package telemetry

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/trace"
)

// Kind discriminates what a row records.
type Kind uint8

// Row kinds. Phase rows carry a rank-timeline interval in virtual
// seconds; the marker kinds reuse the fixed row shape for run-scoped
// events (see the field conventions on Row).
const (
	// KindPhase is one phase interval of a rank timeline: Rank is the
	// recording rank, Phase the trace phase, Start/End virtual seconds.
	KindPhase Kind = iota
	// KindStep marks a completed time step: Rank is WorldRank, Step the
	// zero-based step index, Start == End the virtual step-boundary time.
	KindStep
	// KindMigration marks a DLB worker migration: Rank is WorldRank,
	// Step the rank whose pool was resized, Aux the new worker count,
	// Start == End wall-clock seconds since the run started.
	KindMigration
	// KindQueueWait records a service job's scheduler admission: Rank is
	// WorldRank, Start 0 (job accepted), End wall-clock seconds the job
	// waited for run capacity.
	KindQueueWait
	numKinds
)

// String names the kind for wire formats and listings.
func (k Kind) String() string {
	switch k {
	case KindPhase:
		return "phase"
	case KindStep:
		return "step"
	case KindMigration:
		return "migration"
	case KindQueueWait:
		return "queue-wait"
	}
	return "unknown"
}

// ParseKind inverts Kind.String (unknown strings report ok == false).
func ParseKind(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// WorldRank marks rows that belong to the whole run rather than one
// rank's timeline (step markers, DLB migrations, scheduler events).
const WorldRank int32 = -1

// Row is one fixed-width telemetry record. Field meaning depends on
// Kind (see the Kind constants); the encoding is RowSize bytes,
// little-endian, and bit-exact for the float fields so a reloaded
// timeline renders byte-identically to the in-memory one.
type Row struct {
	Rank  int32
	Step  int32
	Kind  Kind
	Phase trace.Phase
	Aux   int32
	Start float64
	End   float64
}

// RowSize is the fixed on-disk size of one encoded row.
const RowSize = 32

// encode writes r into dst[:RowSize].
func (r Row) encode(dst []byte) {
	_ = dst[RowSize-1]
	binary.LittleEndian.PutUint32(dst[0:], uint32(r.Rank))
	binary.LittleEndian.PutUint32(dst[4:], uint32(r.Step))
	dst[8] = byte(r.Kind)
	dst[9] = byte(r.Phase)
	dst[10] = 0
	dst[11] = 0
	binary.LittleEndian.PutUint32(dst[12:], uint32(r.Aux))
	binary.LittleEndian.PutUint64(dst[16:], math.Float64bits(r.Start))
	binary.LittleEndian.PutUint64(dst[24:], math.Float64bits(r.End))
}

// decodeRow reads one row from src[:RowSize].
func decodeRow(src []byte) Row {
	_ = src[RowSize-1]
	return Row{
		Rank:  int32(binary.LittleEndian.Uint32(src[0:])),
		Step:  int32(binary.LittleEndian.Uint32(src[4:])),
		Kind:  Kind(src[8]),
		Phase: trace.Phase(src[9]),
		Aux:   int32(binary.LittleEndian.Uint32(src[12:])),
		Start: math.Float64frombits(binary.LittleEndian.Uint64(src[16:])),
		End:   math.Float64frombits(binary.LittleEndian.Uint64(src[24:])),
	}
}

// RunMeta describes one recorded run. It is persisted as JSON next to
// the run's chunks (metadata is not hot-path data) and listed by
// Store.Runs and the service's /telemetry/runs endpoint.
type RunMeta struct {
	// Run is the store-unique run ID (the chunk directory name).
	Run string `json:"run"`
	// Job is the owning service job, when the run was recorded through
	// the job server.
	Job string `json:"job,omitempty"`
	// Scenario is the registry scenario that produced the run, if known.
	Scenario string `json:"scenario,omitempty"`
	// Mode is the coupling execution mode ("synchronous" or "coupled").
	Mode string `json:"mode,omitempty"`
	// Ranks and Steps size the recorded simulation.
	Ranks int `json:"ranks,omitempty"`
	Steps int `json:"steps,omitempty"`
	// Makespan is the virtual time of the slowest rank.
	Makespan float64 `json:"makespan,omitempty"`
	// Created stamps when the run was recorded.
	Created time.Time `json:"created,omitempty"`
	// Rows counts the persisted rows; written at writer Close.
	Rows int `json:"rows,omitempty"`
	// Complete reports that the run's writer closed cleanly. A run that
	// is false on a reopened store was interrupted (its complete rows
	// are still served).
	Complete bool `json:"complete,omitempty"`
}

// Sink opens per-run writers. *Store is the canonical implementation;
// the job service wraps one to stamp job IDs and scheduler events onto
// runs. coupling.RunContext begins one run per executed simulation on
// the sink it finds configured (or attached to its context).
type Sink interface {
	BeginRun(meta RunMeta) (*RunWriter, error)
}

// TraceFromRows rebuilds a rank-timeline trace from phase rows (other
// kinds are skipped). ranks fixes the timeline count; pass 0 to size it
// from the largest rank seen. Row order is preserved per rank, so a
// trace reloaded from a store renders byte-identically to the original
// in-memory one.
func TraceFromRows(ranks int, rows []Row) *trace.Trace {
	if ranks <= 0 {
		for _, r := range rows {
			if r.Kind == KindPhase && int(r.Rank) >= ranks {
				ranks = int(r.Rank) + 1
			}
		}
	}
	tr := trace.NewTrace(ranks)
	events := make([][]trace.Event, ranks)
	for _, r := range rows {
		if r.Kind != KindPhase || r.Rank < 0 || int(r.Rank) >= ranks {
			continue
		}
		events[r.Rank] = append(events[r.Rank], trace.Event{Phase: r.Phase, Start: r.Start, End: r.End})
	}
	for i, ev := range events {
		tr.Ranks[i].RestoreEvents(ev)
	}
	return tr
}
