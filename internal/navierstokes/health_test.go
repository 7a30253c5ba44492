package navierstokes

import (
	"errors"
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

// runOneRankStep builds a single-rank solver with cfg, lets mutate
// tamper with it, and returns the first Step error.
func runOneRankStep(t *testing.T, cfg Config, mutate func(*Solver)) error {
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
	tr := trace.NewTrace(1)
	var stepErr error
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(1)
		defer pool.Close()
		s, err := NewSolver(m, rms[0], r.Comm, pool, cfg, DefaultCostModel(), tr.Ranks[0])
		if err != nil {
			panic(err)
		}
		if mutate != nil {
			mutate(s)
		}
		_, stepErr = s.Step()
	})
	if err != nil {
		t.Fatal(err)
	}
	return stepErr
}

func serialCfg() Config {
	cfg := DefaultConfig()
	cfg.Strategy = tasking.StrategySerial
	return cfg
}

// TestHealthCheckThreshold: with the guard enabled and an absurdly low
// threshold, the first momentum solve's residual trips a typed
// *ErrDiverged naming rank, step and phase.
func TestHealthCheckThreshold(t *testing.T) {
	cfg := serialCfg()
	cfg.HealthCheck = true
	cfg.MaxResidual = 1e-300
	err := runOneRankStep(t, cfg, nil)
	var div *ErrDiverged
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want *ErrDiverged", err)
	}
	if div.Phase != "momentum" || div.Rank != 0 {
		t.Fatalf("diverged = %+v", div)
	}
	if !(div.Residual > cfg.MaxResidual) {
		t.Fatalf("residual %g does not exceed threshold", div.Residual)
	}
}

// TestHealthCheckOffByDefault: the same pathological threshold is inert
// while HealthCheck is false — default runs pay nothing and change
// nothing.
func TestHealthCheckOffByDefault(t *testing.T) {
	cfg := serialCfg()
	cfg.MaxResidual = 1e-300 // ignored: HealthCheck false
	if err := runOneRankStep(t, cfg, nil); err != nil {
		t.Fatalf("default config step failed: %v", err)
	}
}

// TestNonFiniteAlwaysCaught: NaN contamination in the velocity field is
// flagged even with the guard off — the always-on half of the check,
// since NaN state can otherwise propagate silently for the rest of the
// run (NaN never exceeds any finite threshold).
func TestNonFiniteAlwaysCaught(t *testing.T) {
	err := runOneRankStep(t, serialCfg(), func(s *Solver) {
		for i := range s.U[0] {
			s.U[0][i] = math.NaN()
		}
	})
	var div *ErrDiverged
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want *ErrDiverged", err)
	}
	if div.Phase == "" {
		t.Fatalf("diverged without a phase: %+v", div)
	}
}

// TestPressureLaplacianBitSymmetric: the assembled pressure matrix L of
// a one-rank solver (no halo shares) is symmetric to the bit — pattern
// and values — on a single tube and on the default airway tree, so PCG
// sees the symmetric operator it assumes.
func TestPressureLaplacianBitSymmetric(t *testing.T) {
	tube := mesh.DefaultAirwayConfig()
	tube.Generations = 0
	tube.NTheta = 8
	tube.NAxial = 3
	tube.WithInletFunnel = false
	for name, mc := range map[string]mesh.AirwayConfig{"tube": tube, "airway": mesh.DefaultAirwayConfig()} {
		m, err := mesh.GenerateAirway(mc)
		if err != nil {
			t.Fatal(err)
		}
		rms, err := partition.BuildRankMeshes(m, make([]int32, m.NumElems()), 1)
		if err != nil {
			t.Fatal(err)
		}
		world, err := simmpi.NewWorld(1)
		if err != nil {
			t.Fatal(err)
		}
		var L *la.CSRMatrix
		err = world.Run(func(r *simmpi.Rank) {
			pool := tasking.NewPool(1)
			defer pool.Close()
			s, err := NewSolver(m, rms[0], r.Comm, pool, serialCfg(), DefaultCostModel(), trace.NewTrace(1).Ranks[0])
			if err != nil {
				panic(err)
			}
			L = s.L
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < int32(L.N); i++ {
			for k := L.Ptr[i]; k < L.Ptr[i+1]; k++ {
				j := L.Col[k]
				kt := L.Find(j, i)
				if kt < 0 {
					t.Fatalf("%s: L(%d,%d) stored but L(%d,%d) is not", name, i, j, j, i)
				}
				if math.Float64bits(L.Val[k]) != math.Float64bits(L.Val[kt]) {
					t.Fatalf("%s: L(%d,%d) = %x, L(%d,%d) = %x", name, i, j, math.Float64bits(L.Val[k]), j, i, math.Float64bits(L.Val[kt]))
				}
			}
		}
	}
}
