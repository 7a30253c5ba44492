package particles

import (
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// boundaryProbePoints assembles the points where flat-grid and map-bucket
// lookups could plausibly diverge: element centroids and vertices, points
// on grid-cell edges, the outlet plane, and points outside the domain.
func boundaryProbePoints(m *mesh.Mesh, l *Locator) []mesh.Vec3 {
	var pts []mesh.Vec3
	for e := 0; e < m.NumElems(); e += 2 {
		pts = append(pts, m.Centroid(e))
	}
	for nd := 0; nd < m.NumNodes(); nd += 3 {
		pts = append(pts, m.Coords[nd]) // element vertices: shared by many cells
	}
	// Points exactly on grid-cell edges (the flat grid and the map hash
	// must bin them identically).
	lo, hi := m.BoundingBox()
	for i := 1; i < 6; i++ {
		x := l.origin.X + float64(i)*l.cell
		y := l.origin.Y + float64(i)*l.cell
		z := l.origin.Z + float64(i)*l.cell
		pts = append(pts,
			mesh.Vec3{X: x, Y: (lo.Y + hi.Y) / 2, Z: (lo.Z + hi.Z) / 2},
			mesh.Vec3{X: (lo.X + hi.X) / 2, Y: y, Z: (lo.Z + hi.Z) / 2},
			mesh.Vec3{X: (lo.X + hi.X) / 2, Y: (lo.Y + hi.Y) / 2, Z: z},
		)
	}
	// The outlet plane (z of the distal cross-sections) and just below it.
	for _, nd := range m.OutletNodes {
		p := m.Coords[nd]
		pts = append(pts, p, mesh.Vec3{X: p.X, Y: p.Y, Z: p.Z - 1e-6})
	}
	// Out-of-domain probes: far away and just past each bbox face.
	eps := 1e-7 * (hi.Z - lo.Z)
	pts = append(pts,
		mesh.Vec3{X: 10, Y: 10, Z: 10},
		mesh.Vec3{X: -10, Y: -10, Z: -10},
		mesh.Vec3{X: hi.X + eps, Y: (lo.Y + hi.Y) / 2, Z: (lo.Z + hi.Z) / 2},
		mesh.Vec3{X: lo.X - eps, Y: (lo.Y + hi.Y) / 2, Z: (lo.Z + hi.Z) / 2},
		mesh.Vec3{X: (lo.X + hi.X) / 2, Y: (lo.Y + hi.Y) / 2, Z: lo.Z - eps},
		mesh.Vec3{X: (lo.X + hi.X) / 2, Y: (lo.Y + hi.Y) / 2, Z: hi.Z + eps},
	)
	// Random interior jitter for volume coverage.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		pts = append(pts, mesh.Vec3{
			X: lo.X + rng.Float64()*(hi.X-lo.X),
			Y: lo.Y + rng.Float64()*(hi.Y-lo.Y),
			Z: lo.Z + rng.Float64()*(hi.Z-lo.Z),
		})
	}
	return pts
}

// TestLocatorFlatMatchesMapOnBoundaries requires the flat CSR grid and
// the legacy map buckets to agree exactly — same element id, same
// found/not-found — on every probe point, with and without a hint.
func TestLocatorFlatMatchesMapOnBoundaries(t *testing.T) {
	m := airway(t, 1)
	flat := NewLocator(m, nil, 32)
	mp := NewLocatorMap(m, nil, 32)
	pts := boundaryProbePoints(m, flat)
	found := 0
	for i, p := range pts {
		fe, fok := flat.Locate(p, -1)
		me, mok := mp.Locate(p, -1)
		if fe != me || fok != mok {
			t.Fatalf("probe %d at %+v: flat (%d,%v) vs map (%d,%v)", i, p, fe, fok, me, mok)
		}
		if fok {
			found++
		}
		// A stale-but-valid hint must not change the answer's validity.
		he, hok := flat.Locate(p, 3)
		if hok != true && mok {
			t.Fatalf("probe %d: hint lookup lost a locatable point (%d,%v)", i, he, hok)
		}
	}
	if found == 0 {
		t.Fatal("no probe point was locatable; test is vacuous")
	}
}

// TestLocatorFlatMatchesMapOnSubset repeats the agreement check on a
// restricted element subset (a rank's subdomain), where empty cells are
// common in the flat grid.
func TestLocatorFlatMatchesMapOnSubset(t *testing.T) {
	m := airway(t, 1)
	var odds []int32
	for e := 1; e < m.NumElems(); e += 2 {
		odds = append(odds, int32(e))
	}
	flat := NewLocator(m, odds, 24)
	mp := NewLocatorMap(m, odds, 24)
	for e := 0; e < m.NumElems(); e += 5 {
		p := m.Centroid(e)
		fe, fok := flat.Locate(p, -1)
		me, mok := mp.Locate(p, -1)
		if fe != me || fok != mok {
			t.Fatalf("centroid of %d: flat (%d,%v) vs map (%d,%v)", e, fe, fok, me, mok)
		}
	}
}

// TestLocatorFlatUnionInvariant checks the flat grid's precomputed
// structure — the only one a live flat locator retains: union offsets are
// monotone and every cell's neighborhood list equals the legacy 27-cell
// scan over the map buckets (center cell first, then dz/dy/dx neighbor
// order) with later duplicates dropped.
func TestLocatorFlatUnionInvariant(t *testing.T) {
	m := airway(t, 0)
	flat := NewLocator(m, nil, 16)
	mp := NewLocatorMap(m, nil, 16)
	ncells := flat.nx * flat.ny * flat.nz
	if len(flat.unionPtr) != ncells+1 {
		t.Fatalf("unionPtr length %d, want %d", len(flat.unionPtr), ncells+1)
	}
	if flat.cellPtr != nil || flat.cellElems != nil {
		t.Fatal("flat locator retains the CSR build intermediate")
	}
	for iz := 0; iz < flat.nz; iz++ {
		for iy := 0; iy < flat.ny; iy++ {
			for ix := 0; ix < flat.nx; ix++ {
				k := flat.key(ix, iy, iz)
				if flat.unionPtr[k] > flat.unionPtr[k+1] {
					t.Fatalf("unionPtr not monotone at %d", k)
				}
				var want []int32
				seen := make(map[int32]bool)
				scan := func(x, y, z int) {
					if x < 0 || y < 0 || z < 0 || x >= flat.nx || y >= flat.ny || z >= flat.nz {
						return
					}
					for _, e := range mp.buckets[flat.key(x, y, z)] {
						if !seen[e] {
							seen[e] = true
							want = append(want, e)
						}
					}
				}
				scan(ix, iy, iz)
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							scan(ix+dx, iy+dy, iz+dz)
						}
					}
				}
				got := flat.unionElems[flat.unionPtr[k]:flat.unionPtr[k+1]]
				if len(got) != len(want) {
					t.Fatalf("cell %d: %d union candidates vs %d from map scan", k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cell %d: union order differs: %v vs %v", k, got, want)
					}
				}
			}
		}
	}
}

// TestKindTetsMatchTetDecomposition pins Contains' static per-kind tet
// tables to mesh.TetDecomposition: same tets, same order, for every
// element kind.
func TestKindTetsMatchTetDecomposition(t *testing.T) {
	m := airway(t, 1)
	seen := map[mesh.Kind]bool{}
	for e := 0; e < m.NumElems(); e++ {
		kind := m.Kinds[e]
		if seen[kind] {
			continue
		}
		seen[kind] = true
		nodes := m.ElemNodes(e)
		want := m.TetDecomposition(e, nil)
		got := kindTets[kind]
		if len(got) != len(want) {
			t.Fatalf("%v: table has %d tets, TetDecomposition %d", kind, len(got), len(want))
		}
		for i, tet := range got {
			for j, local := range tet {
				if nodes[local] != want[i][j] {
					t.Fatalf("%v: tet %d node %d is local %d (global %d), TetDecomposition says %d",
						kind, i, j, local, nodes[local], want[i][j])
				}
			}
		}
	}
	if len(seen) != len(kindTets) {
		t.Fatalf("mesh exercises %d element kinds, table has %d", len(seen), len(kindTets))
	}
}
