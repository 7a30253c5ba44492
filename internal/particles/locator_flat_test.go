package particles

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// nearFaceOffsets are the probe distances from an element face, in units
// of the mesh span: from well inside pointInTet's tolerance band, through
// the padded-box margin (1e-6), to clearly off the face.
var nearFaceOffsets = [...]float64{1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 2e-6, 1e-5, 1e-3}

// tetFaces calls fn with the centroid and outward normal (unnormalized) of
// each face of element e's tet decomposition: the element's own faces,
// quads as their two triangles, and the decomposition's inner faces.
func tetFaces(m *mesh.Mesh, e int, fn func(centroid, normal mesh.Vec3)) {
	nodes := m.ElemNodes(e)
	for _, tet := range kindTets[m.Kinds[e]] {
		for f := range tet {
			var v [3]mesh.Vec3
			for i, j := 0, 0; i < 4; i++ {
				if i != f {
					v[j] = m.Coords[nodes[tet[i]]]
					j++
				}
			}
			c := v[0].Add(v[1]).Add(v[2]).Scale(1.0 / 3)
			n := v[1].Sub(v[0]).Cross(v[2].Sub(v[0]))
			if n.Dot(c.Sub(m.Coords[nodes[tet[f]]])) < 0 {
				n = n.Scale(-1)
			}
			fn(c, n)
		}
	}
}

// boundaryProbePoints assembles the points where flat-grid and map-bucket
// lookups could plausibly diverge: element centroids and vertices, points
// just inside and just outside element faces, points on grid-cell edges,
// the outlet plane, and points outside the domain.
func boundaryProbePoints(m *mesh.Mesh, l *Locator) []mesh.Vec3 {
	var pts []mesh.Vec3
	for e := 0; e < m.NumElems(); e += 2 {
		pts = append(pts, m.Centroid(e))
	}
	// Near-face probes: where pointInTet's tolerance decides, and where
	// the padded-box reject in Locate would first bite if it were too
	// tight (the map oracle has no reject).
	span := l.tol / 1e-9
	for e := 0; e < m.NumElems(); e += 7 {
		tetFaces(m, e, func(c, n mesh.Vec3) {
			n = n.Scale(span / n.Norm())
			for _, d := range nearFaceOffsets {
				pts = append(pts, c.Add(n.Scale(d)), c.Sub(n.Scale(d)))
			}
		})
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
	for i, p := range boundaryProbePoints(m, flat) {
		fe, fok := flat.Locate(p, -1)
		me, mok := mp.Locate(p, -1)
		if fe != me || fok != mok {
			t.Fatalf("probe %d at %+v: flat (%d,%v) vs map (%d,%v)", i, p, fe, fok, me, mok)
		}
	}
}

// TestPaddedBoxHoldsEveryAcceptedPoint is the property Locate's box
// reject rests on: every point Contains accepts lies inside the element's
// padded box. Probes sit on both sides of every vertex (along the ray from
// the element centroid) and of every tet face centroid (along the face
// normal), 1e-12 ... 1e-3 x the mesh span away, on every airway of the
// element-tangling suite's grid (generations 0-4 x jitter x funnel).
func TestPaddedBoxHoldsEveryAcceptedPoint(t *testing.T) {
	for gens := 0; gens <= 4; gens++ {
		for _, jitter := range []float64{0, 0.01, 0.05} {
			for _, funnel := range []bool{true, false} {
				cfg := mesh.DefaultAirwayConfig()
				cfg.Generations, cfg.Jitter, cfg.WithInletFunnel = gens, jitter, funnel
				t.Run(fmt.Sprintf("gens=%d/jitter=%g/funnel=%v", gens, jitter, funnel), func(t *testing.T) {
					t.Parallel()
					checkPaddedBoxes(t, cfg)
				})
			}
		}
	}
}

func checkPaddedBoxes(t *testing.T, cfg mesh.AirwayConfig) {
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLocator(m, nil, 32) // whole mesh: boxes[e] is element e's
	span := l.tol / 1e-9
	accepted, pastExact := 0, 0
	for e := 0; e < m.NumElems(); e++ {
		var exact elemBox
		exact.lo, exact.hi = m.ElemBox(e)
		probe := func(at, dir mesh.Vec3) {
			dir = dir.Scale(span / dir.Norm())
			for _, d := range nearFaceOffsets {
				for _, p := range [2]mesh.Vec3{at.Add(dir.Scale(d)), at.Sub(dir.Scale(d))} {
					if !l.Contains(e, p) {
						continue
					}
					accepted++
					if !exact.has(p) {
						pastExact++
					}
					if !l.boxes[e].has(p) {
						t.Fatalf("element %d (%v) contains %+v outside its padded box %+v", e, m.Kinds[e], p, l.boxes[e])
					}
				}
			}
		}
		c := m.Centroid(e)
		for _, nd := range m.ElemNodes(e) {
			probe(m.Coords[nd], m.Coords[nd].Sub(c))
		}
		tetFaces(m, e, probe)
	}
	// Not vacuous: the tolerance band is exercised past the exact box,
	// where a too-tight pad would reject.
	if pastExact == 0 {
		t.Fatalf("none of %d accepted probes lies outside its exact box", accepted)
	}
}

// TestLocatorNeighbourMask checks the flat grid's structure against the
// map oracle's buckets, on the whole mesh and on the odd-element subset at
// three resolutions: every cell's CSR list names the bucket's elements in
// the bucket's order, and bit j of its neighbor mask is set iff neighbor j
// (nbrOffsets: the cell, then dz/dy/dx order) is inside the grid and has a
// non-empty bucket, and nbrDelta[j] reaches that neighbor's key.
func TestLocatorNeighbourMask(t *testing.T) {
	m := airway(t, 0)
	var odds []int32
	for e := 1; e < m.NumElems(); e += 2 {
		odds = append(odds, int32(e))
	}
	for _, res := range []int{16, 24, 32} {
		for _, subset := range [][]int32{nil, odds} {
			flat := NewLocator(m, subset, res)
			mp := NewLocatorMap(m, subset, res)
			ncells := flat.nx * flat.ny * flat.nz
			if len(flat.cellPtr) != ncells+1 || len(flat.nbrMask) != ncells {
				t.Fatalf("res %d: %d offsets and %d masks for %d cells", res, len(flat.cellPtr), len(flat.nbrMask), ncells)
			}
			set := 0
			for iz := 0; iz < flat.nz; iz++ {
				for iy := 0; iy < flat.ny; iy++ {
					for ix := 0; ix < flat.nx; ix++ {
						k := flat.key(ix, iy, iz)
						got := flat.cellElems[flat.cellPtr[k]:flat.cellPtr[k+1]]
						want := mp.buckets[k]
						if len(got) != len(want) {
							t.Fatalf("res %d cell %d: %d candidates vs %d in the bucket", res, k, len(got), len(want))
						}
						for i := range got {
							if flat.elems[got[i]] != want[i] {
								t.Fatalf("res %d cell %d: candidate %d is element %d, bucket says %d", res, k, i, flat.elems[got[i]], want[i])
							}
						}
						for j, o := range nbrOffsets {
							x, y, z := ix+o[0], iy+o[1], iz+o[2]
							inside := x >= 0 && y >= 0 && z >= 0 && x < flat.nx && y < flat.ny && z < flat.nz
							wantBit := inside && len(mp.buckets[flat.key(x, y, z)]) > 0
							if gotBit := flat.nbrMask[k]>>j&1 == 1; gotBit != wantBit {
								t.Fatalf("res %d cell (%d,%d,%d) neighbor %d %v: mask bit %v, want %v", res, ix, iy, iz, j, o, gotBit, wantBit)
							}
							if wantBit {
								set++
								if n := k + int(flat.nbrDelta[j]); n != flat.key(x, y, z) {
									t.Fatalf("res %d cell %d neighbor %d: delta reaches key %d, want %d", res, k, j, n, flat.key(x, y, z))
								}
							}
						}
						if flat.nbrMask[k]>>len(nbrOffsets) != 0 {
							t.Fatalf("res %d cell %d: mask %#x sets a bit past neighbor 26", res, k, flat.nbrMask[k])
						}
					}
				}
			}
			if set == 0 {
				t.Fatalf("res %d: no mask bit set; test is vacuous", res)
			}
		}
	}
}

// FuzzLocate holds the flat locator to the map oracle on fuzzed lookups.
// The point is drawn in the mesh box widened by one cell on every side,
// so it may lie outside the grid, and is optionally snapped onto a grid
// corner or onto a cell face. The hint is -1, an own element, or the
// element the point just left: the oracle's answer a small step back.
// The subset is the whole mesh, its odd elements or its even ones.
func FuzzLocate(f *testing.F) {
	m := airway(f, 1)
	var subsets [3][]int32 // whole mesh, even elements, odd elements
	for e := 0; e < m.NumElems(); e++ {
		subsets[1+e%2] = append(subsets[1+e%2], int32(e))
	}
	var flats [3]*Locator
	var maps [3]*mapLocator
	for i, sub := range subsets {
		flats[i], maps[i] = NewLocator(m, sub, 32), NewLocatorMap(m, sub, 32)
	}
	lo, hi := m.BoundingBox()
	c := flats[0].cell
	// at maps a fuzzed word onto [lo-c, hi+c]; frac is its inverse.
	at := func(f uint32, lo, hi float64) float64 {
		return lo - c + float64(f)/(1<<32)*(hi-lo+2*c)
	}
	frac := func(x, lo, hi float64) uint32 {
		return uint32((x - lo + c) / (hi - lo + 2*c) * (1 << 32))
	}
	// Seeds: element centroids and vertices (hits, and points many
	// elements share) under every hint kind and subset, then grid
	// corners and faces, inside and outside the grid.
	for _, e := range []int{0, m.NumElems() / 2, m.NumElems() - 1} {
		for _, p := range []mesh.Vec3{m.Centroid(e), m.Coords[m.ElemNodes(e)[0]]} {
			fx, fy, fz := frac(p.X, lo.X, hi.X), frac(p.Y, lo.Y, hi.Y), frac(p.Z, lo.Z, hi.Z)
			for parity := uint8(0); parity < 3; parity++ {
				for hint := uint8(0); hint < 3; hint++ {
					f.Add(fx, fy, fz, uint8(0), hint, uint32(e), int8(3), int8(-5), int8(9), parity)
				}
			}
		}
	}
	for snap := uint8(1); snap < 9; snap++ {
		f.Add(uint32(1<<31), uint32(1<<31), uint32(1<<30), snap, uint8(0), uint32(0), int8(0), int8(0), int8(0), snap%3)
	}
	f.Add(uint32(0), uint32(0), uint32(0), uint8(1), uint8(0), uint32(0), int8(0), int8(0), int8(0), uint8(0))
	f.Add(^uint32(0), ^uint32(0), ^uint32(0), uint8(2), uint8(1), ^uint32(0), int8(0), int8(0), int8(0), uint8(1))
	f.Fuzz(func(t *testing.T, fx, fy, fz uint32, snap, hintKind uint8, hintIdx uint32, sx, sy, sz int8, parity uint8) {
		sub := int(parity % 3)
		flat, mp := flats[sub], maps[sub]
		p := mesh.Vec3{X: at(fx, lo.X, hi.X), Y: at(fy, lo.Y, hi.Y), Z: at(fz, lo.Z, hi.Z)}
		onGrid := func(x, origin float64) float64 {
			return origin + math.Round((x-origin)/c)*c
		}
		switch snap % 3 {
		case 1: // a grid corner
			p = mesh.Vec3{X: onGrid(p.X, flat.origin.X), Y: onGrid(p.Y, flat.origin.Y), Z: onGrid(p.Z, flat.origin.Z)}
		case 2: // a cell face normal to one axis
			switch snap / 3 % 3 {
			case 0:
				p.X = onGrid(p.X, flat.origin.X)
			case 1:
				p.Y = onGrid(p.Y, flat.origin.Y)
			default:
				p.Z = onGrid(p.Z, flat.origin.Z)
			}
		}
		hint := int32(-1)
		switch hintKind % 3 {
		case 1:
			hint = flat.elems[hintIdx%uint32(len(flat.elems))]
		case 2: // a step of up to a cell back along (sx, sy, sz)
			back := mesh.Vec3{X: float64(sx), Y: float64(sy), Z: float64(sz)}.Scale(c / 128)
			hint, _ = mp.Locate(p.Sub(back), -1)
		}
		fe, fok := flat.Locate(p, hint)
		me, mok := mp.Locate(p, hint)
		if fe != me || fok != mok {
			t.Fatalf("p=%+v hint %d subset %d: flat (%d,%v) vs map (%d,%v)", p, hint, sub, fe, fok, me, mok)
		}
	})
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
