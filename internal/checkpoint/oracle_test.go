package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fsutil"
	"repro/internal/mesh"
)

// oracleEnc is the buffered encoder the streaming one replaced, kept as
// the reference for the v2 byte layout: it appends the whole file to one
// []byte and seals each section with the CRC32C of that section's bytes.
type oracleEnc struct{ buf []byte }

func (e *oracleEnc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *oracleEnc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *oracleEnc) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *oracleEnc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *oracleEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *oracleEnc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

// vec3s flattens v into float triplets first, as the copying capture
// did before the encoder saw the state.
func (e *oracleEnc) vec3s(v []mesh.Vec3) {
	flat := make([]float64, 0, 3*len(v))
	for _, x := range v {
		flat = append(flat, x.X, x.Y, x.Z)
	}
	e.f64s(flat)
}

func (e *oracleEnc) i64s(v []int64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

func (e *oracleEnc) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}

func (e *oracleEnc) u8s(v []uint8) {
	e.u32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// crc seals the section that started at byte offset start by appending
// the CRC32C of everything written since.
func (e *oracleEnc) crc(start int) {
	e.u32(crc32.Checksum(e.buf[start:], castagnoli))
}

// oracleEncode renders the snapshot into its binary form.
func oracleEncode(s *Snapshot) []byte {
	e := &oracleEnc{buf: make([]byte, 0, 1<<16)}
	e.buf = append(e.buf, magic...)
	e.u32(version)
	start := len(e.buf)
	e.str(s.Fingerprint)
	e.i64(s.Step)
	e.f64(s.SimTime)
	e.f64s(s.StepClocks)
	e.u32(uint32(len(s.Ranks)))
	e.crc(start)
	for i := range s.Ranks {
		start = len(e.buf)
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
		e.crc(start)
	}
	e.buf = append(e.buf, footer...)
	return e.buf
}

// sectionEnd is the byte offset just past section k's CRC word in s's
// encoding: k = 0 is the header, k = i+1 is rank i. The rank count
// field has a fixed width, so the encoding of s cut to its first k
// ranks is exactly that prefix plus the footer.
func sectionEnd(s *Snapshot, k int) int {
	t := *s
	t.Ranks = s.Ranks[:k]
	return len(oracleEncode(&t)) - len(footer)
}

// endSectionAt pads s's fingerprint so that section k ends at byte
// offset at (which must not be before where it ends now).
func endSectionAt(s *Snapshot, k, at int) *Snapshot {
	t := *s
	t.Fingerprint += strings.Repeat("x", at-sectionEnd(s, k))
	return &t
}

// randVec3s draws n vectors; values are finite so DeepEqual holds after
// a round trip.
func randVec3s(rng *rand.Rand, n int) []mesh.Vec3 {
	v := make([]mesh.Vec3, n)
	for i := range v {
		v[i] = mesh.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	return v
}

func randFloats(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randSnapshot draws a snapshot of the given shape: ranks alternate
// between both roles, fluid only and particles only, the solver holds
// nodes nodes and 2*nodes elements, the particle ranks np particles.
func randSnapshot(seed int64, ranks, nodes, np, events int) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := New("fuzz", ranks)
	s.Step = rng.Int63n(1000)
	s.SimTime = rng.Float64()
	s.StepClocks = randFloats(rng, int(s.Step%7))
	for i := range s.Ranks {
		r := &s.Ranks[i]
		r.HasSolver = i%3 != 2
		r.HasParticles = i%3 != 1
		r.Injected = rng.Int63()
		r.Workers = rng.Int63n(8)
		if r.HasSolver {
			r.Solver.StepIndex = s.Step + 1
			for c := range r.Solver.U {
				r.Solver.U[c] = randFloats(rng, nodes)
			}
			r.Solver.P = randFloats(rng, nodes)
			r.Solver.SGS = randVec3s(rng, 2*nodes)
		}
		if r.HasParticles {
			p := &r.Particles
			p.ID = make([]int64, np)
			p.Elem = make([]int32, np)
			for j := range p.ID {
				p.ID[j] = rng.Int63()
				p.Elem[j] = rng.Int31() - 1<<30
			}
			p.Pos, p.Vel, p.Acc = randVec3s(rng, np), randVec3s(rng, np), randVec3s(rng, np)
			p.Deposited, p.Exited, p.WorkUnits, p.NextID = rng.Int63(), rng.Int63(), rng.Int63(), rng.Int63()
		}
		r.Trace.Phases = make([]uint8, events)
		rng.Read(r.Trace.Phases)
		r.Trace.Starts = randFloats(rng, events)
		r.Trace.Ends = randFloats(rng, events)
	}
	return s
}

// checkStreamed requires Encode and the bytes Save leaves on disk to
// equal the oracle's encoding of s.
func checkStreamed(t *testing.T, s *Snapshot) {
	t.Helper()
	want := oracleEncode(s)
	if got := s.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode: %d bytes differ from the oracle's %d", len(got), len(want))
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Save: %d bytes on disk differ from the oracle's %d", len(got), len(want))
	}
}

// TestStreamedEncodeMatchesOracle pins the streamed encoder to the
// buffered one byte for byte, where a chunk flush meets a section end
// and where sections span many chunks.
func TestStreamedEncodeMatchesOracle(t *testing.T) {
	noParticles := sampleSnapshot()
	noParticles.Ranks[1].Particles = ParticleState{ID: []int64{}, Pos: []mesh.Vec3{}, Vel: []mesh.Vec3{},
		Acc: []mesh.Vec3{}, Elem: []int32{}, NextID: 10}
	cases := map[string]*Snapshot{
		"sample":       sampleSnapshot(),
		"no particles": noParticles,
		"no ranks":     New("empty", 0),
		"many chunks":  randSnapshot(1, 4, 3000, 20000, 50),
	}
	for _, d := range []int{-1, 0, 1} {
		cases[fmt.Sprintf("header ends at chunk%+d", d)] = endSectionAt(sampleSnapshot(), 0, chunkSize+d)
		cases[fmt.Sprintf("rank 0 ends at chunk%+d", d)] = endSectionAt(sampleSnapshot(), 1, chunkSize+d)
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) { checkStreamed(t, s) })
	}
}

// TestSaveAllocatesOneChunk pins that Save streams: a snapshot of
// 200 000 particles (about 17 MB on disk) is written with O(chunk)
// allocation, not a buffer the size of the file.
func TestSaveAllocatesOneChunk(t *testing.T) {
	s := randSnapshot(2, 1, 0, 200_000, 0)
	path := filepath.Join(t.TempDir(), "big.ckpt")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("Save allocated %d bytes, want <= %d (chunk %d)", got, bound, chunkSize)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() < 200_000*84 {
		t.Fatalf("saved file: %v, %v", fi, err)
	}
}

var errInjected = errors.New("injected write failure")

// failAfter passes the first left bytes through to w, then fails every
// write; writes counts the calls it saw after failing.
type failAfter struct {
	w      io.Writer
	left   int
	failed bool
	writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.writes++
		return 0, errInjected
	}
	if len(p) > f.left {
		n, _ := f.w.Write(p[:f.left])
		f.left, f.failed = 0, true
		return n, errInjected
	}
	f.left -= len(p)
	return f.w.Write(p)
}

// TestSaveFailedStreamLeavesTargetUntouched breaks the stream Save
// writes after k bytes — before the first byte, inside a chunk and on a
// chunk boundary: the error comes back, the previous snapshot stays
// intact and no temporary file is left.
func TestSaveFailedStreamLeavesTargetUntouched(t *testing.T) {
	big := randSnapshot(3, 2, 2000, 5000, 10)
	for _, k := range []int{0, chunkSize / 2, chunkSize, 3 * chunkSize} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := sampleSnapshot().Save(path); err != nil {
			t.Fatal(err)
		}
		fw := &failAfter{left: k}
		err := fsutil.WriteAtomic(path, 0o644, func(w io.Writer) error {
			fw.w = w
			return big.writeTo(fw)
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("k=%d: err = %v, want the injected failure", k, err)
		}
		if fw.writes != 0 {
			t.Fatalf("k=%d: %d writes after the failure", k, fw.writes)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("k=%d: temporary file left behind (stat err = %v)", k, err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, sampleSnapshot().Encode()) {
			t.Fatalf("k=%d: target changed (%d bytes, %v)", k, len(got), err)
		}
	}
}

// raggedPos is the sample's encoding with rank 1's Pos float count cut
// from 6 to 5 (its last float dropped) and the rank CRC re-sealed, so
// only the triplet rule can reject it.
func raggedPos() []byte {
	s := sampleSnapshot()
	data := oracleEncode(s)
	start := sectionEnd(s, 1)
	lenAt := start + 1 + 8 + 8 + 4 + 8*len(s.Ranks[1].Particles.ID)
	n := binary.LittleEndian.Uint32(data[lenAt:])
	binary.LittleEndian.PutUint32(data[lenAt:], n-1)
	cut := lenAt + 4 + 8*int(n-1)
	data = append(data[:cut], data[cut+8:]...)
	crcAt := len(data) - len(footer) - 4
	binary.LittleEndian.PutUint32(data[crcAt:], crc32.Checksum(data[start:crcAt], castagnoli))
	return data
}

func TestDecodeRaggedVec3(t *testing.T) {
	_, err := Decode(raggedPos())
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || ce.Section != "rank 1" || !strings.Contains(ce.Detail, "multiple of 3") {
		t.Fatalf("err = %v, want *ErrCorrupt in rank 1 about a length not a multiple of 3", err)
	}
}

// FuzzEncodeDecode draws snapshot shapes: the streamed encoding must
// equal the oracle's, and Decode must give the snapshot back.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(5), uint16(3), uint8(4))
	f.Add(int64(2), uint8(0), uint16(0), uint16(0), uint8(0))
	f.Add(int64(3), uint8(3), uint16(0), uint16(0), uint8(1))
	f.Add(int64(4), uint8(5), uint16(900), uint16(3000), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, ranks uint8, nodes, np uint16, events uint8) {
		s := randSnapshot(seed, int(ranks%8), int(nodes), int(np), int(events))
		data := s.Encode()
		if want := oracleEncode(s); !bytes.Equal(data, want) {
			t.Fatalf("streamed %d bytes differ from the oracle's %d", len(data), len(want))
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatal("round trip changed the snapshot")
		}
	})
}
