package navierstokes

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/tasking"
)

// planSolver is the slice of a Solver that buildPlan reads: rank 0's
// mesh of a four-way partition and a pool whose maximum size is workers.
func planSolver(t testing.TB, workers int) *Solver {
	t.Helper()
	m := testMesh(t)
	p, err := partition.KWay(m.DualByNode(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool := tasking.NewPool(workers)
	t.Cleanup(pool.Close)
	return &Solver{RM: rms[0], Pool: pool}
}

func TestBuildPlanAllStrategies(t *testing.T) {
	s := planSolver(t, 2)
	for _, strat := range []tasking.Strategy{
		tasking.StrategySerial, tasking.StrategyAtomic,
		tasking.StrategyColoring, tasking.StrategyMultidep,
	} {
		plan, err := s.buildPlan(strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if plan.Strategy != strat || plan.NumElems != s.RM.NumElems() {
			t.Fatalf("%v: wrong plan shape", strat)
		}
	}
	if _, err := s.buildPlan(tasking.Strategy(99)); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestBuildPlanMultidepTaskCount(t *testing.T) {
	// Four tasks per worker.
	plan, err := planSolver(t, 3).buildPlan(tasking.StrategyMultidep)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSub != 12 {
		t.Fatalf("default task count %d, want 12", plan.NumSub)
	}
}

func TestLocalConflictsMatchesSharedNodes(t *testing.T) {
	rm := planSolver(t, 1).RM
	g := localConflicts(rm)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	share := func(e, f int) bool {
		for _, a := range rm.ElemNodesLocal(e) {
			for _, b := range rm.ElemNodesLocal(f) {
				if a == b {
					return true
				}
			}
		}
		return false
	}
	step := rm.NumElems()/30 + 1
	for e := 0; e < rm.NumElems(); e += step {
		for f := 0; f < rm.NumElems(); f += step * 2 {
			if e == f {
				continue
			}
			if g.HasEdge(e, f) != share(e, f) {
				t.Fatalf("conflict(%d,%d)=%v, share=%v", e, f, g.HasEdge(e, f), share(e, f))
			}
		}
	}
}
