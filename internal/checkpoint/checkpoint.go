// Package checkpoint serializes the deterministic simulation state of a
// coupled run — solver vectors, particle SoA store, per-rank virtual
// trace, counters, step index and sim time — so an interrupted run can
// resume and finish byte-identical to an uninterrupted one (the repo's
// standing determinism contract).
//
// A snapshot is a single binary file written atomically and durably:
// the encoder streams <path>.tmp through one fixed chunk, fsyncs it,
// renames it over <path>, and fsyncs the parent directory, so a reader
// only ever observes a complete snapshot that survives power loss. The
// format is versioned and checksummed: version 2 appends a CRC32C after
// the header section and after each rank section, so a flipped bit
// anywhere in the file is reported as a typed *ErrCorrupt naming the
// section and offset rather than silently decoding garbage. Any other
// version, including the pre-checksum v1, is rejected as corrupt.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/fsutil"
	"repro/internal/mesh"
)

// Format constants. The magic gates decoding; the footer detects
// truncation of a file that was not atomically renamed into place; the
// per-section CRC32C words catch everything subtler.
const (
	magic   = "RSPCKPT1"
	footer  = "END!"
	version = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrMismatch reports a checkpoint whose fingerprint does not match the
// run configuration attempting to resume from it.
var ErrMismatch = errors.New("checkpoint: config fingerprint mismatch")

// ErrCorrupt reports a checkpoint file that failed structural or
// checksum validation. Every Decode failure is an *ErrCorrupt — a
// corrupt length field, a truncated buffer, and a CRC mismatch all
// surface the same way, so callers (the generation-chain walk, the
// integrity scrubber) branch on one type instead of string matching.
type ErrCorrupt struct {
	Path    string // file path when known (filled in by Load)
	Section string // "magic", "footer", "version", "header", "rank N"
	Offset  int64  // byte offset where the problem surfaced
	Detail  string
}

func (e *ErrCorrupt) Error() string {
	loc := e.Section
	if e.Path != "" {
		loc = e.Path + ": " + loc
	}
	return fmt.Sprintf("checkpoint: corrupt %s at offset %d: %s", loc, e.Offset, e.Detail)
}

// SolverState is one rank's Navier-Stokes state at a step boundary.
// Uold is deliberately absent: Step overwrites it from U before reading
// it, so it is dead state between steps.
type SolverState struct {
	StepIndex int64
	U         [3][]float64
	P         []float64
	SGS       []mesh.Vec3 // subgrid velocity per local element
}

// ParticleState is one rank's tracker state: the active SoA store plus
// the fate counters and ID cursor.
type ParticleState struct {
	ID            []int64
	Pos, Vel, Acc []mesh.Vec3
	Elem          []int32
	Deposited     int64
	Exited        int64
	WorkUnits     int64
	NextID        int64
}

// TraceState is one rank's virtual-time event log, column-wise.
type TraceState struct {
	Phases []uint8
	Starts []float64
	Ends   []float64
}

// RankState is everything one rank contributes to a snapshot.
type RankState struct {
	HasSolver    bool
	Solver       SolverState
	HasParticles bool
	Particles    ParticleState
	Trace        TraceState
	Injected     int64
	Workers      int64 // DLB worker target at capture (best effort)
}

// Snapshot is a whole-world checkpoint at one step boundary.
type Snapshot struct {
	Fingerprint string
	Step        int64 // last completed step (zero-based)
	SimTime     float64
	StepClocks  []float64 // rank 0's per-step virtual clocks, if recorded
	Ranks       []RankState
}

// New creates an empty snapshot with slots for the given rank count.
func New(fingerprint string, ranks int) *Snapshot {
	return &Snapshot{Fingerprint: fingerprint, Ranks: make([]RankState, ranks)}
}

// --- encoding ---

// chunkSize is the encoder's one output buffer: a snapshot of any size
// reaches its writer in writes of at most this many bytes.
const chunkSize = 64 << 10

// enc streams the binary layout into w through one fixed chunk. The
// CRC32C of the open section runs across flushes (crc covers its bytes
// already written, buf[mark:] the rest), so a section of any size is
// sealed without being held in memory. The first write error sticks
// and later writes are dropped.
type enc struct {
	w    io.Writer
	buf  []byte
	mark int
	crc  uint32
	err  error
}

func (e *enc) flush() {
	e.crc = crc32.Update(e.crc, castagnoli, e.buf[e.mark:])
	e.mark = 0
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// room returns the next n bytes of the chunk (n <= chunkSize) to fill,
// flushing first when they do not fit.
func (e *enc) room(n int) []byte {
	if cap(e.buf)-len(e.buf) < n {
		e.flush()
	}
	l := len(e.buf)
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

func (e *enc) u8(v uint8)    { e.room(1)[0] = v }
func (e *enc) u32(v uint32)  { binary.LittleEndian.PutUint32(e.room(4), v) }
func (e *enc) i64(v int64)   { binary.LittleEndian.PutUint64(e.room(8), uint64(v)) }
func (e *enc) f64(v float64) { binary.LittleEndian.PutUint64(e.room(8), math.Float64bits(v)) }

// raw writes b as is, across as many chunks as it spans.
func (e *enc) raw(b []byte) {
	for len(b) > 0 {
		if len(e.buf) == cap(e.buf) {
			e.flush()
		}
		l := len(e.buf)
		n := copy(e.buf[l:cap(e.buf)], b)
		e.buf = e.buf[:l+n]
		b = b[n:]
	}
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.raw([]byte(s))
}

func (e *enc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

// vec3s writes v in the float-triplet layout: the length field counts
// floats (3 per vector), exactly as a flattened []float64 would.
func (e *enc) vec3s(v []mesh.Vec3) {
	e.u32(uint32(3 * len(v)))
	for _, x := range v {
		e.f64(x.X)
		e.f64(x.Y)
		e.f64(x.Z)
	}
}

func (e *enc) i64s(v []int64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

func (e *enc) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}

func (e *enc) u8s(v []uint8) {
	e.u32(uint32(len(v)))
	e.raw(v)
}

// open starts a checksummed section at the current position.
func (e *enc) open() {
	e.mark = len(e.buf)
	e.crc = 0
}

// seal closes the open section by writing the CRC32C of its bytes.
func (e *enc) seal() {
	e.u32(crc32.Update(e.crc, castagnoli, e.buf[e.mark:]))
}

// writeTo streams the snapshot's binary form into w through one
// chunkSize buffer and reports the first write error.
func (s *Snapshot) writeTo(w io.Writer) error {
	e := &enc{w: w, buf: make([]byte, 0, chunkSize)}
	e.raw([]byte(magic))
	e.u32(version)
	e.open()
	e.str(s.Fingerprint)
	e.i64(s.Step)
	e.f64(s.SimTime)
	e.f64s(s.StepClocks)
	e.u32(uint32(len(s.Ranks)))
	e.seal()
	for i := range s.Ranks {
		e.open()
		r := &s.Ranks[i]
		var flags uint8
		if r.HasSolver {
			flags |= 1
		}
		if r.HasParticles {
			flags |= 2
		}
		e.u8(flags)
		e.i64(r.Injected)
		e.i64(r.Workers)
		if r.HasSolver {
			e.i64(r.Solver.StepIndex)
			for c := 0; c < 3; c++ {
				e.f64s(r.Solver.U[c])
			}
			e.f64s(r.Solver.P)
			e.vec3s(r.Solver.SGS)
		}
		if r.HasParticles {
			p := &r.Particles
			e.i64s(p.ID)
			e.vec3s(p.Pos)
			e.vec3s(p.Vel)
			e.vec3s(p.Acc)
			e.i32s(p.Elem)
			e.i64(p.Deposited)
			e.i64(p.Exited)
			e.i64(p.WorkUnits)
			e.i64(p.NextID)
		}
		e.u8s(r.Trace.Phases)
		e.f64s(r.Trace.Starts)
		e.f64s(r.Trace.Ends)
		e.seal()
	}
	e.raw([]byte(footer))
	e.flush()
	return e.err
}

// Encode renders the snapshot into its binary form in memory, through
// the same encoder Save streams to disk.
func (s *Snapshot) Encode() []byte {
	var b bytes.Buffer
	_ = s.writeTo(&b) // a bytes.Buffer write never fails
	return b.Bytes()
}

// --- decoding ---

type dec struct {
	buf     []byte
	off     int
	section string
	err     error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = &ErrCorrupt{Section: d.section, Offset: int64(d.off), Detail: "truncated"}
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) i64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (d *dec) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// length reads a collection length and sanity-checks it against the
// remaining bytes (each element is at least elemSize bytes), so a
// corrupt length cannot provoke a huge allocation.
func (d *dec) length(elemSize int) int {
	n := int(d.u32())
	if d.err == nil && n*elemSize > len(d.buf)-d.off {
		d.fail()
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := d.length(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *dec) f64s() []float64 {
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

// vec3s reads a float-triplet vector; a float count that is not a
// multiple of 3 is corrupt.
func (d *dec) vec3s() []mesh.Vec3 {
	at := d.off
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	if n%3 != 0 {
		d.err = &ErrCorrupt{Section: d.section, Offset: int64(at),
			Detail: fmt.Sprintf("vector length %d is not a multiple of 3", n)}
		return nil
	}
	v := make([]mesh.Vec3, n/3)
	for i := range v {
		v[i] = mesh.Vec3{X: d.f64(), Y: d.f64(), Z: d.f64()}
	}
	return v
}

func (d *dec) i64s() []int64 {
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.i64()
	}
	return v
}

func (d *dec) i32s() []int32 {
	n := d.length(4)
	if d.err != nil {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(d.u32())
	}
	return v
}

func (d *dec) u8s() []uint8 {
	n := d.length(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	v := make([]uint8, n)
	copy(v, b)
	return v
}

// checksum verifies the CRC32C word sealing the section that started
// at byte offset start.
func (d *dec) checksum(start int) {
	if d.err != nil {
		return
	}
	end := d.off
	want := d.u32()
	if d.err != nil {
		return
	}
	if got := crc32.Checksum(d.buf[start:end], castagnoli); got != want {
		d.err = &ErrCorrupt{
			Section: d.section,
			Offset:  int64(start),
			Detail:  fmt.Sprintf("crc mismatch: stored %08x, computed %08x", want, got),
		}
	}
}

// Decode parses a snapshot from its binary form, the current checksummed
// layout only. Any failure — bad magic, truncation, another version, a
// clamped length field, a CRC mismatch — returns an *ErrCorrupt; Decode
// never panics on arbitrary input.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, &ErrCorrupt{Section: "magic", Detail: "bad magic"}
	}
	if len(data) < len(magic)+4+len(footer) || string(data[len(data)-len(footer):]) != footer {
		return nil, &ErrCorrupt{Section: "footer", Offset: int64(len(data)), Detail: "missing footer (truncated write)"}
	}
	d := &dec{buf: data[:len(data)-len(footer)], off: len(magic), section: "header"}
	if v := d.u32(); v != version {
		return nil, &ErrCorrupt{Section: "version", Offset: int64(len(magic)), Detail: fmt.Sprintf("unsupported version %d", v)}
	}
	s := &Snapshot{}
	start := d.off
	s.Fingerprint = d.str()
	s.Step = d.i64()
	s.SimTime = d.f64()
	s.StepClocks = d.f64s()
	nr := d.length(1)
	d.checksum(start)
	if d.err != nil {
		return nil, d.err
	}
	s.Ranks = make([]RankState, nr)
	for i := range s.Ranks {
		d.section = fmt.Sprintf("rank %d", i)
		start = d.off
		r := &s.Ranks[i]
		flags := d.u8()
		r.HasSolver = flags&1 != 0
		r.HasParticles = flags&2 != 0
		r.Injected = d.i64()
		r.Workers = d.i64()
		if r.HasSolver {
			r.Solver.StepIndex = d.i64()
			for c := 0; c < 3; c++ {
				r.Solver.U[c] = d.f64s()
			}
			r.Solver.P = d.f64s()
			r.Solver.SGS = d.vec3s()
		}
		if r.HasParticles {
			p := &r.Particles
			p.ID = d.i64s()
			p.Pos = d.vec3s()
			p.Vel = d.vec3s()
			p.Acc = d.vec3s()
			p.Elem = d.i32s()
			p.Deposited = d.i64()
			p.Exited = d.i64()
			p.WorkUnits = d.i64()
			p.NextID = d.i64()
		}
		r.Trace.Phases = d.u8s()
		r.Trace.Starts = d.f64s()
		r.Trace.Ends = d.f64s()
		d.checksum(start)
		if d.err != nil {
			return nil, d.err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// Save writes the snapshot atomically and durably: stream the encoding
// into <path>.tmp, fsync, rename over <path>, fsync the parent
// directory. A reader (or a resuming process) therefore only ever sees
// a complete snapshot, and the rename survives a crash. The file is
// never held in memory whole: Save allocates one chunk, whatever the
// snapshot's size.
func (s *Snapshot) Save(path string) error {
	return fsutil.WriteAtomic(path, 0o644, s.writeTo)
}

// Load reads and decodes the snapshot at path. Corruption errors carry
// the path.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	var ce *ErrCorrupt
	if errors.As(err, &ce) {
		ce.Path = path
	}
	return s, err
}

// LoadMatching loads the snapshot at path if it exists and carries the
// given fingerprint. A missing file returns (nil, nil) — no checkpoint,
// start fresh. A fingerprint mismatch returns ErrMismatch (wrapped);
// callers normally also treat that as "start fresh", logging it, since
// it means the configuration changed under the checkpoint.
func LoadMatching(path, fingerprint string) (*Snapshot, error) {
	s, err := Load(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	if s.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: have %q, want %q", ErrMismatch, s.Fingerprint, fingerprint)
	}
	return s, nil
}
