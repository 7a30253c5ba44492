package navierstokes

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// TestLumpedGradientExactOnLinearPressure: correctVelocity's nodal
// gradient — each element's quadrature of N_a grad(p), summed over the
// elements at a node and divided by the lumped volume sum of N_a — is
// exact for a linear pressure p = a.x + b at every node, on every
// element kind of the mesh. Any element whose shape functions fail to
// reproduce linear fields (or whose quadrature weights go wrong) shows
// up as a node where the ratio drifts from a.
func TestLumpedGradientExactOnLinearPressure(t *testing.T) {
	m := testMesh(t)
	rms, err := partition.BuildRankMeshes(m, make([]int32, m.NumElems()), 1)
	if err != nil {
		t.Fatal(err)
	}
	world, err := simmpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	a := [3]float64{3, -2, 5}
	const b = 7.0
	const tol = 1e-10
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(1)
		defer pool.Close()
		s, err := NewSolver(m, rms[0], r.Comm, pool, serialCfg(), DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		rm := s.RM
		for ln := range s.P {
			x := m.Coords[rm.GlobalNode[ln]]
			s.P[ln] = a[0]*x.X + a[1]*x.Y + a[2]*x.Z + b
		}
		s.correctVelocity()

		// The worst relative error over the nodes of each element kind.
		worst := map[mesh.Kind]float64{}
		elems := map[mesh.Kind]int{}
		for e := 0; e < rm.NumElems(); e++ {
			kind := rm.Kinds[e]
			elems[kind]++
			for _, ln := range rm.ElemNodesLocal(e) {
				if !(s.lumped[ln] > 0) {
					t.Errorf("node %d of a %s: lumped volume %g", rm.GlobalNode[ln], kind, s.lumped[ln])
					continue
				}
				for c := 0; c < 3; c++ {
					rel := math.Abs(s.gradScr[c][ln]/s.lumped[ln]-a[c]) / math.Abs(a[c])
					worst[kind] = math.Max(worst[kind], rel)
				}
			}
		}
		for kind, n := range elems {
			t.Logf("%d %s elements: worst relative gradient error %.3g", n, kind, worst[kind])
			if worst[kind] > tol {
				t.Errorf("%s nodes: lumped gradient of a linear pressure is off by %.3g (relative), want <= %g",
					kind, worst[kind], tol)
			}
		}
		if len(elems) < 2 {
			t.Errorf("mesh has only %v element kinds; the check needs the hybrid mesh", elems)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
