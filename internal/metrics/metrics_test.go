package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLoadBalancePerfect(t *testing.T) {
	if lb := LoadBalance([]float64{2, 2, 2}); lb != 1 {
		t.Fatalf("Ln=%g, want 1", lb)
	}
}

func TestLoadBalanceHalf(t *testing.T) {
	// Paper: Ln = 0.5 means 50% of resources wasted. Two processes, one
	// doing all the work: Ln = (t+0)/(2t) = 0.5.
	if lb := LoadBalance([]float64{4, 0}); lb != 0.5 {
		t.Fatalf("Ln=%g, want 0.5", lb)
	}
}

func TestLoadBalanceParticlesPathology(t *testing.T) {
	// 96 ranks, all particle work on ~2 of them: Ln ~= 0.02 (paper
	// Table 1).
	times := make([]float64, 96)
	times[0], times[1] = 1.0, 0.9
	lb := LoadBalance(times)
	if lb < 0.01 || lb > 0.03 {
		t.Fatalf("Ln=%g, want ~0.02", lb)
	}
}

func TestLoadBalanceEdgeCases(t *testing.T) {
	if LoadBalance(nil) != 1 || LoadBalance([]float64{0, 0}) != 1 {
		t.Fatal("empty/zero input should report 1")
	}
}

// Property: Ln is always in (0, 1] and invariant under scaling.
func TestLoadBalanceQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		times := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			times[i] = float64(v)
			scaled[i] = float64(v) * 7.5
		}
		lb := LoadBalance(times)
		if lb <= 0 || lb > 1 {
			return false
		}
		return math.Abs(lb-LoadBalance(scaled)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseTable(t *testing.T) {
	names := []string{"assembly", "particles"}
	times := [][]float64{
		{1, 1, 1, 1}, // perfectly balanced, max 1
		{3, 0, 0, 0}, // pathological, max 3
	}
	rows := PhaseTable(names, times)
	if rows[0].Ln != 1 {
		t.Fatalf("assembly Ln=%g", rows[0].Ln)
	}
	if rows[1].Ln != 0.25 {
		t.Fatalf("particles Ln=%g, want 0.25", rows[1].Ln)
	}
	if math.Abs(rows[0].Percent-25) > 1e-9 || math.Abs(rows[1].Percent-75) > 1e-9 {
		t.Fatalf("percents %g %g", rows[0].Percent, rows[1].Percent)
	}
}
