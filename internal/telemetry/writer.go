package telemetry

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"
)

// RunWriter appends one run's rows. Appends are buffered into the
// current chunk and flushed lazily — when the chunk fills, on Flush,
// and on Close — so draining a whole rank timeline costs one backend
// write per chunk, ~0 allocations per event amortized. Append never
// fails; backend errors latch and surface from Flush and Close. A
// RunWriter is safe for concurrent use, though producers normally
// append from one goroutine at a time.
type RunWriter struct {
	st  *Store
	rs  *runState
	run string

	mu      sync.Mutex
	buf     []byte // pending encoded rows of the current chunk
	seq     int    // current chunk sequence number
	flushed int    // rows of the current chunk already at the backend
	crc     uint32 // running CRC32C of the current chunk's persisted rows
	cur     chunkInfo
	total   int
	err     error
	closed  bool
}

// Run reports the run ID this writer records.
func (w *RunWriter) Run() string { return w.run }

// Append buffers rows onto the run. Appending to a closed writer is a
// no-op (the rows are dropped, matching the telemetry-must-not-fail-
// the-run contract).
func (w *RunWriter) Append(rows ...Row) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	for _, r := range rows {
		n := len(w.buf)
		w.buf = append(w.buf, emptyRow[:]...)
		r.encode(w.buf[n:])
		w.cur.note(r)
		w.total++
		if w.flushed+len(w.buf)/RowSize >= w.st.chunkRows {
			w.flushLocked(true)
		}
	}
}

// emptyRow reserves encoding space in the buffer without a per-row
// allocation.
var emptyRow [RowSize]byte

// Flush pushes buffered rows to the backend without sealing the current
// chunk, and reports the first error the writer has seen.
func (w *RunWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked(false)
	return w.err
}

// Rows reports how many rows were appended so far.
func (w *RunWriter) Rows() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Close flushes, finalizes the run's metadata (row count, Complete),
// and detaches the writer from the store. The run is immutable
// afterwards. Close reports the first error of the writer's lifetime;
// the run's complete rows are queryable regardless.
func (w *RunWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.flushLocked(false)
	w.sealLocked() // a cleanly closed run's final chunk is verifiable too
	w.closed = true

	w.st.mu.Lock()
	w.rs.meta.Rows = w.total
	w.rs.meta.Complete = w.err == nil
	meta := w.rs.meta
	w.rs.writer = nil
	w.st.mu.Unlock()

	raw, err := json.Marshal(meta)
	if err == nil {
		err = w.st.be.writeMeta(w.run, raw)
	}
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("telemetry: finalize run %q: %w", w.run, err)
	}
	return w.err
}

// flushLocked writes the buffered rows of the current chunk and updates
// the store's index so concurrent queries observe them. seal advances
// to the next chunk. Called with w.mu held.
func (w *RunWriter) flushLocked(seal bool) {
	pending := len(w.buf) / RowSize
	if pending > 0 && w.err == nil {
		if err := w.st.be.appendChunk(w.run, chunkName(w.seq), w.buf); err != nil {
			w.err = fmt.Errorf("telemetry: append chunk %s/%s: %w", w.run, chunkName(w.seq), err)
		} else {
			w.crc = crc32.Update(w.crc, castagnoli, w.buf)
			w.flushed += pending
			w.publishLocked()
		}
	}
	w.buf = w.buf[:0] // on error the rows are dropped; the error is latched
	if seal && w.err == nil {
		w.sealLocked()
		w.seq++
		w.flushed = 0
		w.crc = 0
		w.cur = newChunkInfo(chunkName(w.seq))
	}
}

// sealLocked appends the CRC footer to the current chunk and makes it
// durable, turning it verifiable for every future read. A chunk with no
// persisted rows gets no footer (there is nothing to verify, and an
// empty sealed chunk would be indistinguishable from a bare footer).
// Called with w.mu held.
func (w *RunWriter) sealLocked() {
	if w.flushed == 0 || w.err != nil {
		return
	}
	name := chunkName(w.seq)
	foot := appendChunkFooter(make([]byte, 0, chunkFooterSize), w.crc, w.flushed)
	if err := w.st.be.appendChunk(w.run, name, foot); err != nil {
		w.err = fmt.Errorf("telemetry: seal chunk %s/%s: %w", w.run, name, err)
		return
	}
	if err := w.st.be.sealChunk(w.run, name); err != nil {
		w.err = fmt.Errorf("telemetry: seal chunk %s/%s: %w", w.run, name, err)
	}
}

// publishLocked reflects the current chunk's persisted rows in the
// store index. Called with w.mu held; takes the store lock.
func (w *RunWriter) publishLocked() {
	ci := w.cur
	ci.rows = w.flushed
	w.st.mu.Lock()
	if w.seq < len(w.rs.chunks) {
		w.rs.chunks[w.seq] = ci
	} else {
		w.rs.chunks = append(w.rs.chunks, ci)
	}
	w.rs.meta.Rows = w.total
	w.st.mu.Unlock()
}
