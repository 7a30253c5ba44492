package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeV1 renders the retired pre-checksum layout: same field order as
// version 2 but version word 1 and no CRC32C after the header or rank
// sections.
func encodeV1(s *Snapshot) []byte {
	e := &oracleEnc{}
	e.buf = append(e.buf, magic...)
	e.u32(1)
	e.str(s.Fingerprint)
	e.i64(s.Step)
	e.f64(s.SimTime)
	e.f64s(s.StepClocks)
	e.u32(uint32(len(s.Ranks)))
	for i := range s.Ranks {
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
	}
	e.buf = append(e.buf, footer...)
	return e.buf
}

// TestDecodeLegacyV1 pins that a v1 file no longer loads: nothing in it
// can be verified, so Decode rejects it as corrupt at the version word.
func TestDecodeLegacyV1(t *testing.T) {
	_, err := Decode(encodeV1(sampleSnapshot()))
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || ce.Section != "version" || ce.Offset != int64(len(magic)) {
		t.Fatalf("v1 file: err = %#v, want *ErrCorrupt in section \"version\" at offset %d", err, len(magic))
	}
}

func TestDecodeHeaderCRC(t *testing.T) {
	data := sampleSnapshot().Encode()
	// Byte 17 is inside the fingerprint string ("cfg-v1"), sealed by the
	// header CRC.
	bad := append([]byte(nil), data...)
	bad[17] ^= 0xff
	_, err := Decode(bad)
	var ce *ErrCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCorrupt, got %v", err)
	}
	if ce.Section != "header" || !strings.Contains(ce.Detail, "crc mismatch") {
		t.Fatalf("verdict %+v", ce)
	}
}

func TestDecodeRankCRC(t *testing.T) {
	data := sampleSnapshot().Encode()
	// len-10 is inside the last rank's trailing trace floats (footer 4 +
	// rank CRC 4 before it), sealed by that rank's CRC.
	bad := append([]byte(nil), data...)
	bad[len(bad)-10] ^= 0xff
	_, err := Decode(bad)
	var ce *ErrCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCorrupt, got %v", err)
	}
	if ce.Section != "rank 1" || !strings.Contains(ce.Detail, "crc mismatch") {
		t.Fatalf("verdict %+v", ce)
	}
}

func TestLoadCarriesPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	data := sampleSnapshot().Encode()
	data[17] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var ce *ErrCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCorrupt, got %v", err)
	}
	if ce.Path != path {
		t.Fatalf("Path = %q, want %q", ce.Path, path)
	}
}

func TestGenPath(t *testing.T) {
	if got := GenPath("job.ckpt", 0); got != "job.ckpt" {
		t.Fatalf("gen 0 = %q", got)
	}
	if got := GenPath("job.ckpt", 3); got != "job.ckpt.3" {
		t.Fatalf("gen 3 = %q", got)
	}
}

// mustStep loads path and asserts its Step.
func mustStep(t *testing.T, path string, step int64) {
	t.Helper()
	s, err := Load(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if s.Step != step {
		t.Fatalf("%s: step %d, want %d", path, s.Step, step)
	}
}

func TestWriteRotation(t *testing.T) {
	dir := t.TempDir()
	p := &Plan{Path: filepath.Join(dir, "run.ckpt"), Keep: 3}
	snap := sampleSnapshot()
	for step := int64(1); step <= 4; step++ {
		snap.Step = step
		if err := p.Write(snap); err != nil {
			t.Fatal(err)
		}
	}
	// Keep=3 retains generations 0..2: after writing steps 1..4, the
	// chain is 4 (newest), 3, 2 — step 1 rotated off the end.
	mustStep(t, GenPath(p.Path, 0), 4)
	mustStep(t, GenPath(p.Path, 1), 3)
	mustStep(t, GenPath(p.Path, 2), 2)
	if _, err := os.Stat(GenPath(p.Path, 3)); !os.IsNotExist(err) {
		t.Fatalf("generation 3 should not exist: %v", err)
	}
}

func TestWriteKeepOne(t *testing.T) {
	dir := t.TempDir()
	p := &Plan{Path: filepath.Join(dir, "run.ckpt")} // Keep unset: single file
	snap := sampleSnapshot()
	for step := int64(1); step <= 3; step++ {
		snap.Step = step
		if err := p.Write(snap); err != nil {
			t.Fatal(err)
		}
	}
	mustStep(t, p.Path, 3)
	if _, err := os.Stat(GenPath(p.Path, 1)); !os.IsNotExist(err) {
		t.Fatalf("no chain expected with Keep<=1: %v", err)
	}
}

// corruptFile flips a fingerprint byte so the header CRC fails.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[17] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeChain writes snap at steps 10 and 20 through a Keep=2 plan, so
// the chain is Path (step 20) and Path.1 (step 10).
func writeChain(t *testing.T, p *Plan) {
	t.Helper()
	snap := sampleSnapshot()
	for _, step := range []int64{10, 20} {
		snap.Step = step
		if err := p.Write(snap); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadResumeCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	var reported []error
	p := &Plan{
		Path: filepath.Join(dir, "run.ckpt"), Keep: 2,
		OnError: func(err error) { reported = append(reported, err) },
	}
	writeChain(t, p)
	corruptFile(t, p.Path)

	s := p.LoadResume("cfg-v1", 2)
	if s == nil || s.Step != 10 {
		t.Fatalf("want fallback to step 10, got %+v", s)
	}
	if _, err := os.Stat(p.Path + ".corrupt"); err != nil {
		t.Fatalf("newest generation not quarantined: %v", err)
	}
	if _, err := os.Stat(p.Path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file should have been renamed away: %v", err)
	}
	if len(reported) == 0 {
		t.Fatal("corruption skip was not reported via OnError")
	}
}

func TestLoadResumeAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	p := &Plan{Path: filepath.Join(dir, "run.ckpt"), Keep: 2}
	writeChain(t, p)
	corruptFile(t, p.Path)
	corruptFile(t, GenPath(p.Path, 1))

	if s := p.LoadResume("cfg-v1", 2); s != nil {
		t.Fatalf("want nil (fresh start), got step %d", s.Step)
	}
	for _, path := range []string{p.Path, GenPath(p.Path, 1)} {
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("%s not quarantined: %v", path, err)
		}
	}
}

func TestLoadResumeMismatchNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	p := &Plan{Path: filepath.Join(dir, "run.ckpt"), Keep: 2}
	writeChain(t, p)

	// A config change is not corruption: both generations mismatch, the
	// walk returns nil, and the files stay where they are.
	if s := p.LoadResume("other-config", 2); s != nil {
		t.Fatalf("want nil on fingerprint mismatch, got step %d", s.Step)
	}
	for _, path := range []string{p.Path, GenPath(p.Path, 1)} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s should survive a mismatch walk: %v", path, err)
		}
	}
}

func TestLoadResumeRankCountMismatch(t *testing.T) {
	dir := t.TempDir()
	p := &Plan{Path: filepath.Join(dir, "run.ckpt"), Keep: 2}
	writeChain(t, p)
	if s := p.LoadResume("cfg-v1", 5); s != nil {
		t.Fatalf("want nil on rank-count mismatch, got %+v", s)
	}
}

func TestQuarantineReplacesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Quarantine(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatal(err)
	}
}
