package particles

import (
	"math"
	"testing"
)

// GanserCdPow is the math.Pow reference implementation of eq. 8, the
// oracle the exp/log fast path is verified against.
func GanserCdPow(re float64) float64 {
	return 24/re*(1+0.1118*math.Pow(re, ganserExp)) + 0.4305/(1+3305/re)
}

// ulpDiff returns the distance in ULPs between two finite floats of the
// same sign (all Cd values here are positive and finite).
func ulpDiff(a, b float64) uint64 {
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

// TestGanserCdFastPathULPBound pins the exp/log fast path to the
// math.Pow reference across the physical Reynolds range. The exponent
// product 0.65657*log(Re) stays below ~9.1 in magnitude over
// [1e-6, 1e6], which bounds the relative error of exp(eps-perturbed
// argument) to a handful of ULPs; the additive terms of eq. 8 dilute it
// further. The asserted bound has ~4x headroom over the measured
// maximum on amd64 so other architectures' libm rounding fits under it.
func TestGanserCdFastPathULPBound(t *testing.T) {
	const (
		loExp, hiExp = -6.0, 6.0 // Re = 10^k sweep bounds
		samples      = 400_000
		maxULP       = 32
	)
	worst := uint64(0)
	worstRe := 0.0
	for i := 0; i <= samples; i++ {
		k := loExp + (hiExp-loExp)*float64(i)/samples
		re := math.Pow(10, k)
		fast := GanserCd(re)
		ref := GanserCdPow(re)
		if math.IsNaN(fast) || math.IsInf(fast, 0) {
			t.Fatalf("Re=%g: fast path not finite: %g", re, fast)
		}
		if d := ulpDiff(fast, ref); d > worst {
			worst, worstRe = d, re
		}
	}
	t.Logf("max ULP distance over Re in [1e-%g, 1e%g]: %d (at Re=%g)", -loExp, hiExp, worst, worstRe)
	if worst > maxULP {
		t.Fatalf("fast GanserCd drifts %d ULPs from the Pow reference at Re=%g (bound %d)",
			worst, worstRe, maxULP)
	}
}

// TestGanserCdFastPathStokesAndNewtonLimits re-checks the correlation's
// physical limits through the fast path: Cd*Re -> 24 as Re -> 0, and Cd
// approaches the Newton-regime plateau at high Re.
func TestGanserCdFastPathStokesAndNewtonLimits(t *testing.T) {
	for _, re := range []float64{1e-6, 1e-5, 1e-4} {
		if cdre := GanserCd(re) * re; math.Abs(cdre-24) > 0.01 {
			t.Fatalf("Re=%g: Cd*Re=%g, want ~24", re, cdre)
		}
	}
	if cd := GanserCd(1e6); cd < 0.4 || cd > 0.6 {
		t.Fatalf("Newton regime Cd=%g, want ~0.43-0.55", cd)
	}
}

func BenchmarkGanserCd(b *testing.B) {
	// Log-spread Reynolds numbers spanning the aerosol range, so the
	// benchmark averages over the same argument distribution a tracker
	// step sees rather than one lucky fast case.
	res := make([]float64, 1024)
	for i := range res {
		res[i] = math.Pow(10, -6+12*float64(i)/float64(len(res)))
	}
	b.Run("fast", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += GanserCd(res[i%len(res)])
		}
		sinkCd = s
	})
	b.Run("pow", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += GanserCdPow(res[i%len(res)])
		}
		sinkCd = s
	})
}

var sinkCd float64
