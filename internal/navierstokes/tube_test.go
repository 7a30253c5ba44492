package navierstokes

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

// tubeFlux sums the volumetric flux through the boundary faces whose
// nodes all lie in nodes: per triangle, the mean of its three nodal
// velocities dotted with the unit normal oriented along dir, times the
// face area.
func tubeFlux(t *testing.T, m *mesh.Mesh, faces []mesh.Face, nodes []int32, field [][3]float64, dir mesh.Vec3) float64 {
	t.Helper()
	flux := 0.0
	in := make(map[int32]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	for _, f := range faces {
		k := 3
		if f.Quad {
			k = 4
		}
		all := true
		for _, n := range f.N[:k] {
			all = all && in[n]
		}
		if !all {
			continue
		}
		if f.Quad {
			t.Fatalf("quad face %v on a tube end section", f.N)
		}
		a, b, c := m.Coords[f.N[0]], m.Coords[f.N[1]], m.Coords[f.N[2]]
		cr := b.Sub(a).Cross(c.Sub(a))
		n := cr.Normalize()
		if n.Dot(dir) < 0 {
			n = n.Scale(-1)
		}
		var u mesh.Vec3
		for _, nd := range f.N[:3] {
			u = u.Add(mesh.Vec3{X: field[nd][0], Y: field[nd][1], Z: field[nd][2]})
		}
		flux += u.Scale(1.0/3).Dot(n) * cr.Norm() / 2
	}
	return flux
}

// TestTubeFluxBalance is a known answer: on a straight tube (no
// junction, no funnel) the fluid is incompressible, so after 20 steps of
// a one-rank serial solve the volumetric flux leaving through the outlet
// equals the flux entering through the inlet, to discretisation error.
// Each refinement doubles NTheta and NAxial and must shrink the
// imbalance. Measured on the three rows (NTheta 10/20/40): +1.25e-2,
// +2.85e-4, +2.42e-4; the tolerances leave that error some headroom.
// The 40-column row is skipped under -short and the race detector.
func TestTubeFluxBalance(t *testing.T) {
	rows := []struct {
		refine int
		tol    float64
	}{{1, 2e-2}, {2, 1e-3}, {4, 1e-3}}
	if testing.Short() || raceEnabled {
		rows = rows[:2]
	}
	prev := math.Inf(1)
	for _, row := range rows {
		mc := mesh.DefaultAirwayConfig()
		mc.Generations = 0
		mc.WithInletFunnel = false
		mc.NTheta *= row.refine
		mc.NAxial *= row.refine
		m, err := mesh.GenerateAirway(mc)
		if err != nil {
			t.Fatal(err)
		}
		field, _ := runDistributed(t, m, 1, 20, serialCfg())
		faces := m.BoundaryFaces()
		down := mesh.Vec3{Z: -1}
		qin := tubeFlux(t, m, faces, m.InletNodes, field, down)
		qout := tubeFlux(t, m, faces, m.OutletNodes, field, down)
		imb := (qout - qin) / qin
		t.Logf("NTheta %d NAxial %d (%d elements): inflow %.6e m^3/s, outflow %.6e, imbalance %+.3e",
			mc.NTheta, mc.NAxial, m.NumElems(), qin, qout, imb)
		if !(qin > 0) {
			t.Fatalf("NTheta %d: inflow %g, want > 0", mc.NTheta, qin)
		}
		if math.Abs(imb) > row.tol {
			t.Errorf("NTheta %d: outflow %g vs inflow %g, imbalance %.3e over %g", mc.NTheta, qout, qin, imb, row.tol)
		}
		if math.Abs(imb) >= prev {
			t.Errorf("NTheta %d: imbalance %.3e did not shrink from %.3e under refinement", mc.NTheta, imb, prev)
		}
		prev = math.Abs(imb)
	}
}
