package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mesh"
)

func sampleSnapshot() *Snapshot {
	s := New("cfg-v1", 2)
	s.Step = 7
	s.SimTime = 0.008
	s.StepClocks = []float64{1, 2.5, 3}
	s.Ranks[0] = RankState{
		HasSolver: true,
		Solver: SolverState{
			StepIndex: 8,
			U:         [3][]float64{{1, 2}, {3, 4}, {5, 6}},
			P:         []float64{0.5, -0.5},
			SGS:       []mesh.Vec3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}},
		},
		Trace:    TraceState{Phases: []uint8{1, 2}, Starts: []float64{0, 1}, Ends: []float64{1, 2}},
		Injected: 100,
		Workers:  4,
	}
	s.Ranks[1] = RankState{
		HasParticles: true,
		Particles: ParticleState{
			ID:        []int64{10, 11},
			Pos:       []mesh.Vec3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}},
			Vel:       []mesh.Vec3{{X: 0.1, Y: 0.2, Z: 0.3}, {X: 0.4, Y: 0.5, Z: 0.6}},
			Acc:       []mesh.Vec3{{}, {}},
			Elem:      []int32{5, -1},
			Deposited: 3,
			Exited:    1,
			WorkUnits: 99,
			NextID:    12,
		},
		Trace: TraceState{Phases: []uint8{3}, Starts: []float64{0}, Ends: []float64{2}},
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s := sampleSnapshot()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || got.Fingerprint != "cfg-v1" {
		t.Fatalf("loaded %+v", got)
	}
	// Overwrite with a later snapshot: rename replaces in place.
	s.Step = 14
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 14 {
		t.Fatalf("step = %d after overwrite", got.Step)
	}
}

func TestLoadMatching(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// Missing file: no checkpoint, no error.
	got, err := LoadMatching(path, "cfg-v1")
	if got != nil || err != nil {
		t.Fatalf("missing file: got %v, %v", got, err)
	}

	if err := sampleSnapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMatching(path, "cfg-v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMatching(path, "cfg-v2"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("want ErrMismatch, got %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	data := sampleSnapshot().Encode()
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Fatal("want error on truncated data")
	}
	if _, err := Decode([]byte("bogus")); err == nil {
		t.Fatal("want error on garbage")
	}
	// Corrupt an interior length field (StepClocks', at magic+version+
	// fingerprint+step+simTime = 38): decode must error, not panic or
	// over-allocate.
	bad := append([]byte(nil), data...)
	bad[38] = 0xff
	bad[39] = 0xff
	bad[40] = 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("want error on corrupt length")
	}
}

func TestDirProviderNumbering(t *testing.T) {
	p := &DirProvider{Dir: "/tmp/x", Base: "job-3", Every: 5}
	first := p.NextPlan()
	second := p.NextPlan()
	if first.Path != filepath.Join("/tmp/x", "job-3.ckpt") {
		t.Fatalf("first path %q", first.Path)
	}
	if second.Path != filepath.Join("/tmp/x", "job-3.2.ckpt") {
		t.Fatalf("second path %q", second.Path)
	}
	if first.Every != 5 || !first.Resume {
		t.Fatalf("plan %+v", first)
	}
}
