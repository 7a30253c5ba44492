package particles

import (
	"testing"

	"repro/internal/mesh"
)

func mkParticle(id int64) Particle {
	f := float64(id)
	return Particle{
		ID: id,
		NewmarkState: NewmarkState{
			Pos: mesh.Vec3{X: f, Y: f + 0.1, Z: f + 0.2},
			Vel: mesh.Vec3{X: -f},
			Acc: mesh.Vec3{Z: 2 * f},
		},
		Elem: int32(id * 10),
	}
}

func TestStoreAppendAtRoundTrip(t *testing.T) {
	s := NewParticleStore(4)
	for id := int64(0); id < 5; id++ {
		s.Append(mkParticle(id))
	}
	if s.Len() != 5 {
		t.Fatalf("len=%d", s.Len())
	}
	for i := 0; i < 5; i++ {
		if got, want := s.At(i), mkParticle(int64(i)); got != want {
			t.Fatalf("At(%d)=%+v, want %+v", i, got, want)
		}
	}
}

func TestStoreCompactIsStable(t *testing.T) {
	s := &ParticleStore{}
	for id := int64(0); id < 6; id++ {
		s.Append(mkParticle(id))
	}
	keep := []bool{true, false, true, true, false, true}
	n := s.Compact(func(i int) bool { return keep[i] })
	if n != 4 || s.Len() != 4 {
		t.Fatalf("compacted to %d/%d", n, s.Len())
	}
	wantIDs := []int64{0, 2, 3, 5}
	for i, want := range wantIDs {
		if s.ID[i] != want || s.At(i) != mkParticle(want) {
			t.Fatalf("ids after compact: %v, want %v", s.ID, wantIDs)
		}
	}
}

func TestStoreCloneAndCopyFromAreIndependent(t *testing.T) {
	s := &ParticleStore{}
	s.Append(mkParticle(1))
	s.Append(mkParticle(2))
	c := s.Clone()
	c.ID[0] = 7
	c.Pos[0] = mesh.Vec3{X: 70}
	if s.ID[0] != 1 || s.Pos[0] != mkParticle(1).Pos {
		t.Fatal("Clone aliases the original")
	}
	var d ParticleStore
	d.Append(mkParticle(9))
	d.CopyFrom(s)
	if d.Len() != 2 || d.ID[0] != 1 || d.ID[1] != 2 {
		t.Fatalf("CopyFrom result: %v", d.ID)
	}
	d.ID[1] = 8
	if s.ID[1] != 2 {
		t.Fatal("CopyFrom aliases the source")
	}
}

func TestStoreParticlesMaterializes(t *testing.T) {
	s := &ParticleStore{}
	for id := int64(3); id < 6; id++ {
		s.Append(mkParticle(id))
	}
	ps := s.Particles()
	if len(ps) != 3 || ps[0] != mkParticle(3) || ps[2] != mkParticle(5) {
		t.Fatalf("materialized %+v", ps)
	}
}
