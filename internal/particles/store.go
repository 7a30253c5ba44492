package particles

import (
	"slices"

	"repro/internal/mesh"
)

// ParticleStore holds a particle population in structure-of-arrays
// layout: one parallel slice per field. The hot loops of the tracker
// (Newmark integration, interpolation, element search) stream positions
// and velocities without pulling IDs and element hints through the cache,
// which is what makes the particle phase memory-bandwidth-friendly on the
// paper's Arm cores; it also lets the parallel Step shard the population
// by index range with no per-particle pointer chasing.
type ParticleStore struct {
	ID   []int64
	Pos  []mesh.Vec3
	Vel  []mesh.Vec3
	Acc  []mesh.Vec3
	Elem []int32 // containing element (global id), -1 if unknown
}

// NewParticleStore returns an empty store with room for n particles.
func NewParticleStore(n int) *ParticleStore {
	return &ParticleStore{
		ID:   make([]int64, 0, n),
		Pos:  make([]mesh.Vec3, 0, n),
		Vel:  make([]mesh.Vec3, 0, n),
		Acc:  make([]mesh.Vec3, 0, n),
		Elem: make([]int32, 0, n),
	}
}

// Len reports the number of particles stored.
func (s *ParticleStore) Len() int { return len(s.ID) }

// Append adds one particle.
func (s *ParticleStore) Append(p Particle) {
	s.ID = append(s.ID, p.ID)
	s.Pos = append(s.Pos, p.Pos)
	s.Vel = append(s.Vel, p.Vel)
	s.Acc = append(s.Acc, p.Acc)
	s.Elem = append(s.Elem, p.Elem)
}

// reserve grows every field once so that n more particles append
// without reallocating.
func (s *ParticleStore) reserve(n int) {
	s.ID = slices.Grow(s.ID, n)
	s.Pos = slices.Grow(s.Pos, n)
	s.Vel = slices.Grow(s.Vel, n)
	s.Acc = slices.Grow(s.Acc, n)
	s.Elem = slices.Grow(s.Elem, n)
}

// At gathers particle i into AoS form (for transport and inspection; hot
// loops read the field slices directly).
func (s *ParticleStore) At(i int) Particle {
	return Particle{
		ID:           s.ID[i],
		NewmarkState: NewmarkState{Pos: s.Pos[i], Vel: s.Vel[i], Acc: s.Acc[i]},
		Elem:         s.Elem[i],
	}
}

// copyWithin moves particle src into slot dst (dst <= src).
func (s *ParticleStore) copyWithin(dst, src int) {
	s.ID[dst] = s.ID[src]
	s.Pos[dst] = s.Pos[src]
	s.Vel[dst] = s.Vel[src]
	s.Acc[dst] = s.Acc[src]
	s.Elem[dst] = s.Elem[src]
}

// Compact removes every particle i for which keep(i) reports false,
// preserving the order of the survivors, and returns the new length.
func (s *ParticleStore) Compact(keep func(i int) bool) int {
	w := 0
	for i := 0; i < s.Len(); i++ {
		if !keep(i) {
			continue
		}
		if w != i {
			s.copyWithin(w, i)
		}
		w++
	}
	s.Truncate(w)
	return w
}

// Truncate shortens the store to n particles.
func (s *ParticleStore) Truncate(n int) {
	s.ID = s.ID[:n]
	s.Pos = s.Pos[:n]
	s.Vel = s.Vel[:n]
	s.Acc = s.Acc[:n]
	s.Elem = s.Elem[:n]
}

// Clear empties the store, keeping capacity.
func (s *ParticleStore) Clear() { s.Truncate(0) }

// Particles materializes the whole population in AoS form.
func (s *ParticleStore) Particles() []Particle {
	out := make([]Particle, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Clone deep-copies the store.
func (s *ParticleStore) Clone() *ParticleStore {
	c := NewParticleStore(s.Len())
	c.ID = append(c.ID, s.ID...)
	c.Pos = append(c.Pos, s.Pos...)
	c.Vel = append(c.Vel, s.Vel...)
	c.Acc = append(c.Acc, s.Acc...)
	c.Elem = append(c.Elem, s.Elem...)
	return c
}

// CopyFrom resets s to the contents of other, reusing capacity.
func (s *ParticleStore) CopyFrom(other *ParticleStore) {
	s.Clear()
	s.ID = append(s.ID, other.ID...)
	s.Pos = append(s.Pos, other.Pos...)
	s.Vel = append(s.Vel, other.Vel...)
	s.Acc = append(s.Acc, other.Acc...)
	s.Elem = append(s.Elem, other.Elem...)
}
