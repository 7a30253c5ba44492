package particles

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// oracleScratch is the materializing injection the streamed one
// replaced: every rank generated the whole release, located every
// candidate and kept 28-32 B per candidate. It stays as the oracle the
// streamed path must reproduce bit for bit.
type oracleScratch struct {
	rng    *rand.Rand
	cands  []mesh.Vec3
	elems  []int32 // per candidate: located element, -1 none (or lost to a lower rank)
	claims []int32 // indices of the candidates this rank located
	ties   int     // located candidates lost to a lower rank, over all calls
}

// candidates generates the deterministic injection positions for a given
// (n, seed) into the scratch: the same sequence on every rank and for
// every tracker implementation. The result is valid until the next call.
func (s *oracleScratch) candidates(m *mesh.Mesh, n int, seed int64, vel mesh.Vec3) []mesh.Vec3 {
	s.cands = s.cands[:0]
	inlet := m.InletNodes
	if len(inlet) == 0 {
		return s.cands
	}
	var centroid mesh.Vec3
	for _, nd := range inlet {
		centroid = centroid.Add(m.Coords[nd])
	}
	centroid = centroid.Scale(1 / float64(len(inlet)))
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	// Candidates are pushed slightly inward along the initial velocity.
	var push mesh.Vec3
	if vn := vel.Norm(); vn > 0 {
		push = vel.Scale(1e-6 / vn)
	}
	s.cands = slices.Grow(s.cands, n)
	for i := 0; i < n; i++ {
		// Random convex combination of a random inlet node and the
		// centroid.
		nd := inlet[s.rng.Intn(len(inlet))]
		a := 0.15 + 0.7*s.rng.Float64()
		pos := m.Coords[nd].Scale(1 - a).Add(centroid.Scale(a))
		if push != (mesh.Vec3{}) {
			pos = pos.Add(push)
		}
		s.cands = append(s.cands, pos)
	}
	return s.cands
}

// releaseCandidates materializes the first n candidates of the (seed,
// vel) release on m.
func releaseCandidates(m *mesh.Mesh, n int, seed int64, vel mesh.Vec3) []mesh.Vec3 {
	var s oracleScratch
	return s.candidates(m, n, seed, vel)
}

// oracleInjectCollective is the materializing InjectAtInletCollective:
// locate every candidate, claim the located ones, clear every index a
// lower rank claimed, then adopt what is left after one store growth.
func oracleInjectCollective(comm *simmpi.Comm, t *Tracker, s *oracleScratch, n int, seed int64, vel mesh.Vec3) int {
	cands := s.candidates(t.Mesh, n, seed, vel)
	s.elems, s.claims = s.elems[:0], s.claims[:0]
	for i, pos := range cands {
		e, ok := t.Loc.Locate(pos, -1)
		if !ok {
			e = -1
		} else {
			s.claims = append(s.claims, int32(i))
		}
		s.elems = append(s.elems, e)
	}
	all := comm.AllgatherInt32s(s.claims)
	for _, lower := range all[:comm.Rank()] {
		for _, idx := range lower {
			if s.elems[idx] >= 0 {
				s.ties++
			}
			s.elems[idx] = -1
		}
	}
	adopted := 0
	for _, e := range s.elems {
		if e >= 0 {
			adopted++
		}
	}
	t.Active.reserve(adopted)
	for i, e := range s.elems {
		if e >= 0 {
			t.adopt(i, cands[i], vel, e, seed)
		}
	}
	t.nextID = int64(n) + seed<<20
	return adopted
}

// kwayParts splits m's elements into k parts the way the runs do.
func kwayParts(t testing.TB, m *mesh.Mesh, k int) [][]int32 {
	t.Helper()
	p, err := partition.KWay(m.DualByNode(), nil, k)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]int32, k)
	for e, part := range p.Parts {
		parts[part] = append(parts[part], int32(e))
	}
	return parts
}

// storeDiff describes the first difference between two stores, or "".
func storeDiff(a, b *ParticleStore) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("%d particles vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		pa, pb := a.At(i), b.At(i)
		if pa.ID != pb.ID || pa.Elem != pb.Elem || stateBits(pa.NewmarkState) != stateBits(pb.NewmarkState) {
			return fmt.Sprintf("particle %d: %+v vs %+v", i, pa, pb)
		}
	}
	return ""
}

// TestInjectStreamedMatchesOracle holds the streamed, owner-only
// collective release to the materializing one on one to four KWay ranks
// of a bifurcating airway: per-rank adoption counts, IDs, state bits,
// elements and store order must agree over two consecutive releases, for
// releases empty, single, one short of, exactly and one past a chunk, and
// past injectKeep. KWay parts meet only on faces, where a random
// candidate practically never lands, so each split also runs with every
// rank holding its neighbor's part too: those overlaps make ties. The
// streamed trackers locate on a two-worker pool.
func TestInjectStreamedMatchesOracle(t *testing.T) {
	m := airway(t, 1)
	vels := [2]mesh.Vec3{{Z: -1}, {X: 0.3, Z: -2}}
	allTies := 0
	type split struct {
		name  string
		parts [][]int32
	}
	var splits []split
	for ranks := 1; ranks <= 4; ranks++ {
		parts := kwayParts(t, m, ranks)
		splits = append(splits, split{fmt.Sprintf("%d-way", ranks), parts})
		if ranks > 1 {
			overlapping := make([][]int32, ranks)
			for r := range parts {
				overlapping[r] = slices.Concat(parts[r], parts[(r+1)%ranks])
			}
			splits = append(splits, split{fmt.Sprintf("%d-way overlapping", ranks), overlapping})
		}
	}
	for _, sp := range splits {
		parts, ranks := sp.parts, len(sp.parts)
		for _, n := range []int{0, 1, injectChunk - 1, injectChunk, injectChunk + 1, injectKeep + 1} {
			world, err := simmpi.NewWorld(ranks)
			if err != nil {
				t.Fatal(err)
			}
			diffs := make([]string, ranks)
			ties := make([]int, ranks)
			err = world.Run(func(r *simmpi.Rank) {
				pool := tasking.NewPool(2)
				defer pool.Close()
				got := NewTracker(m, parts[r.ID()], aerosol(), AirAt20C())
				got.SetPool(pool)
				want := NewTracker(m, parts[r.ID()], aerosol(), AirAt20C())
				var s oracleScratch
				for step, vel := range vels {
					g := InjectAtInletCollectiveAt(r.Comm, got, n, 7, step, vel)
					w := oracleInjectCollective(r.Comm, want, &s, n, 7+int64(step), vel)
					// Record the first difference but keep going: every
					// rank must make the same collective calls.
					d := ""
					switch {
					case g != w:
						d = fmt.Sprintf("adopted %d, oracle %d", g, w)
					case got.nextID != want.nextID:
						d = fmt.Sprintf("next ID %d, oracle %d", got.nextID, want.nextID)
					default:
						d = storeDiff(got.Active, want.Active)
					}
					if d != "" && diffs[r.ID()] == "" {
						diffs[r.ID()] = fmt.Sprintf("step %d: %s", step, d)
					}
				}
				ties[r.ID()] = s.ties
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, d := range diffs {
				if d != "" {
					t.Fatalf("%s, n=%d, rank %d: %s", sp.name, n, rank, d)
				}
			}
			for _, k := range ties {
				allTies += k
			}
		}
	}
	if allTies == 0 {
		t.Fatal("no release had a candidate two ranks located: the tie-break went unexercised")
	}
}

// TestInjectSkipIsExact pins the host test on the particle_bolus mesh
// and the default airway, split two, three and four ways: every rank it
// rules out locates none of a 20 000-candidate release, pushed along or
// across the airway axis, even with the test bypassed, and at least one
// rank of each split is ruled out.
func TestInjectSkipIsExact(t *testing.T) {
	bolus := airway(t, 2)
	def, err := mesh.GenerateAirway(mesh.DefaultAirwayConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*mesh.Mesh{"particle_bolus": bolus, "default": def} {
		for k := 2; k <= 4; k++ {
			ruledOut := 0
			for rank, elems := range kwayParts(t, m, k) {
				tr := NewTracker(m, elems, aerosol(), AirAt20C())
				if tr.mayHostRelease() {
					continue
				}
				ruledOut++
				for _, vel := range []mesh.Vec3{{Z: -1}, {X: 0.6, Y: -0.8}} {
					if got := tr.locateAll(20000, 3, vel); got != 0 {
						t.Errorf("%s mesh, %d ranks: rank %d was ruled out but locates %d candidates at velocity %v", name, k, rank, got, vel)
					}
				}
			}
			if ruledOut == 0 {
				t.Errorf("%s mesh, %d ranks: no rank was ruled out", name, k)
			}
		}
	}
}

// TestInjectRuledOutRankAllocatesNothing pins that a rank the host test
// rules out does no per-candidate work: its part of a 300 000-particle
// bolus allocates nothing.
func TestInjectRuledOutRankAllocatesNothing(t *testing.T) {
	m := airway(t, 2)
	for _, elems := range kwayParts(t, m, 2) {
		tr := NewTracker(m, elems, aerosol(), AirAt20C())
		if tr.mayHostRelease() {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			tr.locateRelease(300000, 1, mesh.Vec3{Z: -1})
		})
		if allocs != 0 {
			t.Fatalf("a ruled-out rank's release allocates %.0f objects, want 0", allocs)
		}
		return
	}
	t.Fatal("no rank of the two-way split was ruled out")
}
