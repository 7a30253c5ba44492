package particles

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
)

func TestDepositionMapBinning(t *testing.T) {
	m := airway(t, 1)
	dm := NewDepositionMap(m, 5)
	if len(dm.Deposited) != 5 || len(dm.BinEdges) != 6 {
		t.Fatal("bin shapes")
	}
	lo, hi := m.BoundingBox()
	// A particle at the very top lands in bin 0, at the bottom in the
	// last bin.
	dm.RecordDeposit(mesh.Vec3{Z: hi.Z})
	dm.RecordDeposit(mesh.Vec3{Z: lo.Z})
	dm.RecordDeposit(mesh.Vec3{Z: (lo.Z + hi.Z) / 2})
	if dm.Deposited[0] != 1 || dm.Deposited[4] != 1 {
		t.Fatalf("extreme bins: %v", dm.Deposited)
	}
	if dm.TotalDeposited() != 3 {
		t.Fatalf("total %d", dm.TotalDeposited())
	}
	// Out-of-range positions clamp.
	dm.RecordDeposit(mesh.Vec3{Z: hi.Z + 1})
	dm.RecordDeposit(mesh.Vec3{Z: lo.Z - 1})
	if dm.TotalDeposited() != 5 {
		t.Fatal("clamping lost deposits")
	}
}

func TestDepositionMapMergeAndFractions(t *testing.T) {
	m := airway(t, 0)
	a := NewDepositionMap(m, 4)
	b := NewDepositionMap(m, 4)
	a.RecordDeposit(m.Coords[m.WallNodes[0]])
	b.Exited = 3
	b.Airborne = 2
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Exited != 3 || a.Airborne != 2 || a.TotalDeposited() != 1 {
		t.Fatalf("merge result %+v", a)
	}
	if got := a.LostFraction(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("lost fraction %g, want 0.25", got)
	}
	c := NewDepositionMap(m, 3)
	if err := a.Merge(c); err == nil {
		t.Fatal("mismatched binning must error")
	}
	if !strings.Contains(a.Format(), "deposition by airway depth") {
		t.Fatal("format")
	}
}

func TestDepositionMapEmptyFraction(t *testing.T) {
	m := airway(t, 0)
	dm := NewDepositionMap(m, 2)
	if dm.LostFraction() != 0 {
		t.Fatal("empty map fraction")
	}
}

// TestDepositionTrackerBinsWallHits bins the particles a tracker
// finalizes as deposited (below the outlet plane they exited instead).
func TestDepositionTrackerBinsWallHits(t *testing.T) {
	m := airway(t, 0)
	tr := NewTracker(m, nil, aerosol(), AirAt20C())
	dm := NewDepositionMap(m, 6)
	tr.InjectAtInlet(80, 5, mesh.Vec3{Z: -1})
	injected := tr.Active.Len()
	side := func(node int32) mesh.Vec3 { return mesh.Vec3{X: 50} }
	for i := 0; i < 300 && tr.Active.Len() > 0; i++ {
		tr.Step(1e-3, side)
		lost := tr.TakeLost()
		tr.Finalize(lost)
		for _, p := range lost {
			if p.Pos.Z <= tr.outletZ {
				dm.Exited++
			} else {
				dm.RecordDeposit(p.Pos)
			}
		}
	}
	if dm.TotalDeposited() != tr.DepositedCount || dm.Exited != tr.ExitedCount {
		t.Fatalf("map deposits/exits %d/%d != tracker %d/%d", dm.TotalDeposited(), dm.Exited, tr.DepositedCount, tr.ExitedCount)
	}
	if dm.TotalDeposited()+dm.Exited+tr.Active.Len() != injected {
		t.Fatal("deposition bookkeeping")
	}
	// Blown sideways near the inlet: deposits concentrate proximally.
	if dm.TotalDeposited() > 0 && dm.Deposited[len(dm.Deposited)-1] > dm.Deposited[0] {
		t.Fatalf("deposits should be proximal: %v", dm.Deposited)
	}
}
