package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// DefaultChunkRows is the row capacity of one chunk (128 KiB of rows):
// large enough that a whole small run fits in one chunk, small enough
// that range queries over long runs skip most of the data.
const DefaultChunkRows = 4096

// Option configures a Store at open time.
type Option func(*Store)

// WithChunkRows overrides the rows-per-chunk bound (tests use tiny
// chunks to exercise ranges that span many of them). n < 1 is ignored.
func WithChunkRows(n int) Option {
	return func(s *Store) {
		if n >= 1 {
			s.chunkRows = n
		}
	}
}

// WithVerifyOnRead makes every Query check sealed chunks' CRC32C
// footers before decoding, failing with *ErrCorrupt instead of serving
// rotted floats. Unsealed chunks (live or crashed writers) are served
// unverified, as always. Off by default: the scrub endpoints verify on
// demand without taxing every read.
func WithVerifyOnRead() Option {
	return func(s *Store) { s.verify = true }
}

// chunkInfo is the in-memory index entry of one chunk: enough to decide
// whether a (time range, rank) query needs the chunk at all.
type chunkInfo struct {
	name             string
	rows             int
	minRank, maxRank int32
	minStart, maxEnd float64
}

// runState is one run's in-memory state.
type runState struct {
	meta    RunMeta
	chunks  []chunkInfo
	indexed bool
	writer  *RunWriter
}

// Store is a chunked, append-optimized run-event store. Runs are
// written once through a RunWriter and immutable afterwards; queries
// may run concurrently with an active writer and observe a flushed
// prefix. All methods are safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	be        backend
	chunkRows int
	verify    bool // check chunk CRC footers on every read
	runs      map[string]*runState
	seq       int // last auto-assigned run number
}

// OpenDir opens (creating if needed) a directory-backed store. Opening
// recovers from a crashed writer: chunk files are sized to whole rows
// (a truncated final row is dropped), and a run whose metadata was
// never finalized is listed with Complete == false and its recovered
// row count.
func OpenDir(dir string, opts ...Option) (*Store, error) {
	be, err := newFileBackend(dir)
	if err != nil {
		return nil, err
	}
	return open(be, opts...)
}

// NewMemStore returns a store backed by process memory — the test
// backend, with the exact semantics of the file backend minus crashes.
func NewMemStore(opts ...Option) *Store {
	st, err := open(newMemBackend(), opts...)
	if err != nil {
		// The memory backend cannot fail to list an empty store.
		panic(err)
	}
	return st
}

func open(be backend, opts ...Option) (*Store, error) {
	s := &Store{be: be, chunkRows: DefaultChunkRows, runs: make(map[string]*runState)}
	for _, o := range opts {
		o(s)
	}
	names, err := be.listRuns()
	if err != nil {
		return nil, fmt.Errorf("telemetry: list runs: %w", err)
	}
	for _, name := range names {
		meta := RunMeta{Run: name}
		if raw, err := be.readMeta(name); err == nil {
			if jerr := json.Unmarshal(raw, &meta); jerr != nil {
				meta = RunMeta{Run: name} // corrupt metadata: serve rows anyway
			}
			meta.Run = name
		}
		// Recovered row count is the chunk-size truth, not the (possibly
		// never-finalized) metadata.
		stats, err := be.listChunks(name)
		if err != nil {
			return nil, fmt.Errorf("telemetry: list chunks of %q: %w", name, err)
		}
		rows := 0
		for _, cs := range stats {
			rows += int(cs.size) / RowSize
		}
		meta.Rows = rows
		s.runs[name] = &runState{meta: meta}
	}
	return s, nil
}

// validateRunID keeps run IDs safe as directory names on every backend.
func validateRunID(id string) error {
	if id == "" || id == "." || id == ".." || len(id) > 128 {
		return fmt.Errorf("telemetry: invalid run ID %q", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("telemetry: invalid run ID %q (want [A-Za-z0-9._-])", id)
		}
	}
	return nil
}

// BeginRun starts recording a new run. meta.Run must be a store-unique
// ID — or empty, which auto-assigns the next free "run-NNNNNN" (a bare
// *Store then works directly as a coupling telemetry sink). A zero
// Created is stamped now. The metadata is persisted immediately so an
// interrupted run stays discoverable; the returned writer finalizes it
// on Close.
func (s *Store) BeginRun(meta RunMeta) (*RunWriter, error) {
	if meta.Run != "" {
		if err := validateRunID(meta.Run); err != nil {
			return nil, err
		}
	}
	if meta.Created.IsZero() {
		meta.Created = time.Now()
	}
	meta.Rows = 0
	meta.Complete = false
	s.mu.Lock()
	if meta.Run == "" {
		meta.Run = s.nextIDLocked()
	} else if _, dup := s.runs[meta.Run]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("telemetry: run %q already exists", meta.Run)
	}
	rs := &runState{meta: meta, indexed: true}
	w := &RunWriter{
		st:  s,
		rs:  rs,
		run: meta.Run,
		buf: make([]byte, 0, s.chunkRows*RowSize),
		cur: newChunkInfo(chunkName(0)),
	}
	rs.writer = w
	s.runs[meta.Run] = rs
	s.mu.Unlock()
	raw, err := json.Marshal(meta)
	if err == nil {
		err = s.be.writeMeta(meta.Run, raw)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.runs, meta.Run)
		s.mu.Unlock()
		return nil, fmt.Errorf("telemetry: begin run %q: %w", meta.Run, err)
	}
	return w, nil
}

// nextIDLocked generates the next unused auto-assigned run ID. Called
// with s.mu held.
func (s *Store) nextIDLocked() string {
	for {
		s.seq++
		id := fmt.Sprintf("run-%06d", s.seq)
		if _, dup := s.runs[id]; !dup {
			return id
		}
	}
}

// Runs lists every run's metadata, oldest first (Created, then ID).
func (s *Store) Runs() []RunMeta {
	s.mu.Lock()
	out := make([]RunMeta, 0, len(s.runs))
	for _, rs := range s.runs {
		out = append(out, rs.meta)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].Run < out[j].Run
	})
	return out
}

// RunCount reports how many runs the store holds.
func (s *Store) RunCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Meta returns one run's metadata.
func (s *Store) Meta(run string) (RunMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.runs[run]
	if rs == nil {
		return RunMeta{}, false
	}
	return rs.meta, true
}

// Query selects rows of one run. The zero Query selects every row; the
// time window is a closed-interval overlap test (a row is included when
// [Start, End] touches [From, To]), and point markers sit at Start ==
// End. Returned rows keep stored (append) order. Unknown runs are an
// error; a run with no matching rows returns an empty, nil-error
// result.
type Query struct {
	// From and To bound the time window; To == 0 means unbounded above.
	From, To float64
	// Rank restricts rows to one rank when HasRank is set (WorldRank
	// selects the run-scoped marker rows).
	Rank    int32
	HasRank bool
}

// matches applies the row-level filter.
func (q Query) matches(r Row) bool {
	if q.HasRank && r.Rank != q.Rank {
		return false
	}
	return (q.To == 0 || r.Start <= q.To) && r.End >= q.From
}

// skipChunk applies the index-level filter.
func (q Query) skipChunk(ci chunkInfo) bool {
	if ci.rows == 0 {
		return true
	}
	if q.HasRank && (q.Rank < ci.minRank || q.Rank > ci.maxRank) {
		return true
	}
	if q.To > 0 && ci.minStart > q.To {
		return true
	}
	return q.From > 0 && ci.maxEnd < q.From
}

// Query returns the rows of run matching q.
func (s *Store) Query(run string, q Query) ([]Row, error) {
	s.mu.Lock()
	rs := s.runs[run]
	if rs == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("telemetry: unknown run %q", run)
	}
	if err := s.ensureIndexLocked(run, rs); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	chunks := append([]chunkInfo(nil), rs.chunks...)
	s.mu.Unlock()

	var out []Row
	for _, ci := range chunks {
		if q.skipChunk(ci) {
			continue
		}
		data, err := s.be.readChunk(run, ci.name)
		if err != nil {
			return nil, fmt.Errorf("telemetry: read chunk %s/%s: %w", run, ci.name, err)
		}
		if s.verify {
			if _, cerr := checkChunk(data); cerr != nil {
				ce := cerr.(*ErrCorrupt)
				ce.Run, ce.Chunk = run, ci.name
				return nil, ce
			}
		}
		n := len(data) / RowSize
		if n > ci.rows {
			// The writer flushed more rows after our index snapshot; stay
			// consistent with the snapshot.
			n = ci.rows
		}
		for i := 0; i < n; i++ {
			if r := decodeRow(data[i*RowSize:]); q.matches(r) {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// Trace rebuilds the rank-timeline trace of a stored run from its phase
// rows. The reloaded trace renders byte-identically to the in-memory
// trace the run was recorded from.
func (s *Store) Trace(run string) (*trace.Trace, RunMeta, error) {
	meta, ok := s.Meta(run)
	if !ok {
		return nil, RunMeta{}, fmt.Errorf("telemetry: unknown run %q", run)
	}
	rows, err := s.Query(run, Query{})
	if err != nil {
		return nil, RunMeta{}, err
	}
	return TraceFromRows(meta.Ranks, rows), meta, nil
}

// ensureIndexLocked builds a discovered run's chunk index by reading
// its chunks once. Runs recorded by this process carry a live index
// maintained by their writer. Called with s.mu held.
func (s *Store) ensureIndexLocked(run string, rs *runState) error {
	if rs.indexed {
		return nil
	}
	stats, err := s.be.listChunks(run)
	if err != nil {
		return fmt.Errorf("telemetry: list chunks of %q: %w", run, err)
	}
	for _, cs := range stats {
		data, err := s.be.readChunk(run, cs.name)
		if err != nil {
			return fmt.Errorf("telemetry: read chunk %s/%s: %w", run, cs.name, err)
		}
		ci := newChunkInfo(cs.name)
		n := len(data) / RowSize // a crash-truncated tail row is dropped here
		for i := 0; i < n; i++ {
			ci.note(decodeRow(data[i*RowSize:]))
		}
		rs.chunks = append(rs.chunks, ci)
	}
	rs.indexed = true
	return nil
}

// newChunkInfo returns an empty index entry.
func newChunkInfo(name string) chunkInfo {
	return chunkInfo{
		name:     name,
		minRank:  math.MaxInt32,
		maxRank:  math.MinInt32,
		minStart: math.Inf(1),
		maxEnd:   math.Inf(-1),
	}
}

// note folds one row into the index entry.
func (ci *chunkInfo) note(r Row) {
	ci.rows++
	if r.Rank < ci.minRank {
		ci.minRank = r.Rank
	}
	if r.Rank > ci.maxRank {
		ci.maxRank = r.Rank
	}
	if r.Start < ci.minStart {
		ci.minStart = r.Start
	}
	if r.End > ci.maxEnd {
		ci.maxEnd = r.End
	}
}
