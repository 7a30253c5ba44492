package navierstokes

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// stepOneRank runs steps steps of a one-rank solver built with cfg and
// tampered with by mutate, and returns each step's stats and the
// solver's counters after the last.
func stepOneRank(t *testing.T, cfg Config, steps int, mutate func(*Solver)) ([]StepStats, SolveCounts) {
	t.Helper()
	m := testMesh(t)
	rms, err := partition.BuildRankMeshes(m, make([]int32, m.NumElems()), 1)
	if err != nil {
		t.Fatal(err)
	}
	world, err := simmpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	var stats []StepStats
	var counts SolveCounts
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(1)
		defer pool.Close()
		s, err := NewSolver(m, rms[0], r.Comm, pool, cfg, DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		if mutate != nil {
			mutate(s)
		}
		for i := 0; i < steps; i++ {
			st, err := s.Step()
			if err != nil {
				panic(err)
			}
			stats = append(stats, st)
		}
		counts = s.Counts()
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, counts
}

// TestStepRecordsSolveOutcomes: a pressure solve cut off at its cap is
// recorded as unconverged and capped, a breakdown as a breakdown, and
// the counters sum the steps' solves and iterations; the step goes on
// in both cases.
func TestStepRecordsSolveOutcomes(t *testing.T) {
	cfg := serialCfg()
	cfg.MaxIterPressure = 3
	stats, counts := stepOneRank(t, cfg, 2, nil)
	iters := 0
	for i, st := range stats {
		if !st.MomentumConverged || st.PressureConverged || st.PressureIters != 3 || st.Breakdowns != 0 {
			t.Errorf("capped pressure, step %d: %+v", i, st)
		}
		iters += st.MomentumIters + st.PressureIters
	}
	if want := (SolveCounts{Solves: 8, Iterations: iters, PressureCapped: 2}); counts != want {
		t.Errorf("capped pressure: counts %+v, want %+v", counts, want)
	}

	// A zero diagonal scaling leaves every search direction zero, so a
	// solve that is not converged on entry breaks down in its first
	// iteration: p·Ap = 0 in PCG, r̂·v = 0 in BiCGSTAB (a momentum
	// component already at rest converges before it can).
	zero := func(r, z []float64) { clear(z) }
	stats, counts = stepOneRank(t, serialCfg(), 2, func(s *Solver) {
		s.momPrecond, s.lPrecond = zero, zero
	})
	breakdowns := 0
	for i, st := range stats {
		if st.MomentumConverged || st.PressureConverged || st.Breakdowns < 2 || st.MomentumIters != 0 || st.PressureIters != 0 {
			t.Errorf("zero preconditioner, step %d: %+v", i, st)
		}
		breakdowns += st.Breakdowns
	}
	if want := (SolveCounts{Solves: 8, Breakdowns: breakdowns}); counts != want {
		t.Errorf("zero preconditioner: counts %+v, want %+v", counts, want)
	}
}
