package particles

import (
	"reflect"
	"testing"

	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
)

func TestInjectAtInletCollectiveNoDuplicates(t *testing.T) {
	m := airway(t, 1)
	dual := m.DualByNode()
	const ranks = 3
	p, err := partition.KWay(dual, nil, ranks)
	if err != nil {
		t.Fatal(err)
	}
	elems := make([][]int32, ranks)
	for e, part := range p.Parts {
		elems[part] = append(elems[part], int32(e))
	}
	world, err := simmpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	adopted := make([]int, ranks)
	ids := make([][]int64, ranks)
	err = world.Run(func(r *simmpi.Rank) {
		tr := NewTracker(m, elems[r.ID()], aerosol(), AirAt20C())
		adopted[r.ID()] = InjectAtInletCollective(r.Comm, tr, n, 9, mesh.Vec3{Z: -1})
		ids[r.ID()] = append(ids[r.ID()], tr.Active.ID...)
	})
	if err != nil {
		t.Fatal(err)
	}
	total := adopted[0] + adopted[1] + adopted[2]
	if total > n {
		t.Fatalf("adopted %d > requested %d: duplicates", total, n)
	}
	if total < n/2 {
		t.Fatalf("adopted only %d of %d", total, n)
	}
	// No particle ID appears on two ranks.
	seen := map[int64]int{}
	for r, list := range ids {
		for _, id := range list {
			if prev, dup := seen[id]; dup {
				t.Fatalf("particle %d adopted by ranks %d and %d", id, prev, r)
			}
			seen[id] = r
		}
	}
}

func TestInjectCollectiveSingleRankMatchesLocal(t *testing.T) {
	// With one rank, collective injection equals local injection.
	m := airway(t, 0)
	world, _ := simmpi.NewWorld(1)
	var collective int
	var first, again []Particle
	var allocs float64
	var kept int
	err := world.Run(func(r *simmpi.Rank) {
		tr := NewTracker(m, nil, aerosol(), AirAt20C())
		collective = InjectAtInletCollective(r.Comm, tr, 200, 4, mesh.Vec3{Z: -1})
		first = tr.Active.Particles()
		// Repeated injections reuse the tracker's injection scratch: a
		// release under another seed and velocity in between must leave
		// no trace in the next one, and once warm only the allgather's
		// result allocates (in a one-rank world: the contribution copy
		// and its boxing, the result table, its one row and its boxing).
		tr.Active.Clear()
		InjectAtInletCollective(r.Comm, tr, 300, 5, mesh.Vec3{X: 0.3, Z: -2})
		tr.Active.Clear()
		InjectAtInletCollective(r.Comm, tr, 200, 4, mesh.Vec3{Z: -1})
		again = tr.Active.Particles()
		allocs = testing.AllocsPerRun(20, func() {
			tr.Active.Clear()
			InjectAtInletCollective(r.Comm, tr, 200, 4, mesh.Vec3{Z: -1})
		})
		// A one-off bolus past injectKeep must not pin its buffers for
		// the rest of the run.
		InjectAtInletCollective(r.Comm, tr, injectKeep+1, 4, mesh.Vec3{Z: -1})
		kept = cap(tr.inj.cands) + cap(tr.inj.elems) + cap(tr.inj.claims)
	})
	if err != nil {
		t.Fatal(err)
	}
	local := NewTracker(m, nil, aerosol(), AirAt20C()).InjectAtInlet(200, 4, mesh.Vec3{Z: -1})
	if collective != local {
		t.Fatalf("collective %d != local %d on one rank", collective, local)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("a reused injection scratch changed the released particles")
	}
	const allgatherAllocs = 5
	if allocs > allgatherAllocs {
		t.Fatalf("repeated injection allocates %.0f objects per call, want <= %d (the allgather's own)", allocs, allgatherAllocs)
	}
	if kept != 0 {
		t.Fatalf("a %d-candidate release left %d scratch slots pinned, want 0", injectKeep+1, kept)
	}
}
