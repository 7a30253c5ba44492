package navierstokes

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mesh"
)

// Waveform scales the inlet velocity over simulation time: the inlet
// Dirichlet value applied at time t is InletVelocity * At(t). The
// abstraction covers the three inflow families in the respiratory CFPD
// literature — steady inhalation (the paper's runs), sinusoidal
// breathing cycles, and tabulated subject-specific flow curves.
//
// Implementations must be pure functions of t: the solver evaluates the
// waveform independently on every rank, so any state would break the
// bit-identical cross-rank contract. String() must be a stable, unique
// encoding — it feeds scenario.Params.CanonicalKey and therefore the
// service dedup cache.
type Waveform interface {
	At(t float64) float64
	String() string
}

// SteadyWaveform is the identity waveform: At(t) = 1 for all t, i.e.
// the constant-inflow behaviour the solver had before waveforms existed.
// A nil Config.Inflow means the same thing (and skips the multiply, so
// legacy runs stay bit-identical).
type SteadyWaveform struct{}

// At returns 1.
func (SteadyWaveform) At(float64) float64 { return 1 }

func (SteadyWaveform) String() string { return "steady" }

// BreathingWaveform is a sinusoidal breathing cycle: At(t) =
// sin(2*pi*t/Period). Inhalation peaks at t = Period/4, flow reverses
// (exhalation) for the second half of each cycle. Period must be
// positive.
type BreathingWaveform struct {
	Period float64
}

// At returns sin(2*pi*t/Period). Where the phase overflows (t far beyond
// any simulated time, or a vanishing Period) it is taken from t's
// remainder modulo Period instead, so every finite t gives a finite
// scale.
func (w BreathingWaveform) At(t float64) float64 {
	x := 2 * math.Pi * t / w.Period
	if math.IsInf(x, 0) {
		x = 2 * math.Pi * (math.Mod(t, w.Period) / w.Period)
	}
	return math.Sin(x)
}

func (w BreathingWaveform) String() string {
	return "breathing:" + strconv.FormatFloat(w.Period, 'g', -1, 64)
}

// TabulatedWaveform linearly interpolates scale factors over sample
// times (a digitized subject-specific flow curve). Times must be
// strictly increasing; evaluation clamps outside the table.
// ParseWaveform accepts only finite tables whose interpolation cannot
// overflow (maxTableScale).
type TabulatedWaveform struct {
	Times  []float64
	Scales []float64
}

// At linearly interpolates the table at t, clamping to the first/last
// sample outside the covered range.
func (w TabulatedWaveform) At(t float64) float64 {
	n := len(w.Times)
	if n == 0 {
		return 1
	}
	if t <= w.Times[0] {
		return w.Scales[0]
	}
	if t >= w.Times[n-1] {
		return w.Scales[n-1]
	}
	i := sort.SearchFloat64s(w.Times, t)
	// Times[i-1] < t < Times[i] (exact hits returned above or land here
	// with Times[i] == t, interpolating to exactly Scales[i]).
	t0, t1 := w.Times[i-1], w.Times[i]
	s0, s1 := w.Scales[i-1], w.Scales[i]
	return s0 + (s1-s0)*(t-t0)/(t1-t0)
}

func (w TabulatedWaveform) String() string {
	var b strings.Builder
	b.WriteString("table:")
	for i := range w.Times {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(w.Times[i], 'g', -1, 64))
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(w.Scales[i], 'g', -1, 64))
	}
	return b.String()
}

// maxTableScale bounds a table's scale magnitudes: with both ends of a
// segment within it, a segment's rise is finite and an interpolated scale
// never exceeds the larger end by more than rounding.
const maxTableScale = math.MaxFloat64 / 4

// ParseWaveform parses the textual waveform forms used by the CLIs and
// the service wire format — the inverse of each implementation's
// String():
//
//	steady
//	breathing:<period seconds>
//	table:<t0>=<s0>,<t1>=<s1>,...
func ParseWaveform(s string) (Waveform, error) {
	switch {
	case s == "steady":
		return SteadyWaveform{}, nil
	case strings.HasPrefix(s, "breathing:"):
		p, err := strconv.ParseFloat(strings.TrimPrefix(s, "breathing:"), 64)
		if err != nil || p <= 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			return nil, fmt.Errorf("waveform %q: breathing period must be a positive number", s)
		}
		return BreathingWaveform{Period: p}, nil
	case strings.HasPrefix(s, "table:"):
		var w TabulatedWaveform
		for _, pair := range strings.Split(strings.TrimPrefix(s, "table:"), ",") {
			t, sc, ok := strings.Cut(pair, "=")
			if !ok {
				return nil, fmt.Errorf("waveform %q: entry %q is not t=scale", s, pair)
			}
			tv, err1 := strconv.ParseFloat(t, 64)
			sv, err2 := strconv.ParseFloat(sc, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("waveform %q: entry %q is not numeric", s, pair)
			}
			if math.IsNaN(tv) || math.IsInf(tv, 0) || !(math.Abs(sv) <= maxTableScale) {
				return nil, fmt.Errorf("waveform %q: entry %q needs a finite time and a scale within ±%g", s, pair, maxTableScale)
			}
			w.Times = append(w.Times, tv)
			w.Scales = append(w.Scales, sv)
		}
		if len(w.Times) == 0 {
			return nil, fmt.Errorf("waveform %q: table needs at least one entry", s)
		}
		for i := 1; i < len(w.Times); i++ {
			if w.Times[i] <= w.Times[i-1] {
				return nil, fmt.Errorf("waveform %q: times must be strictly increasing", s)
			}
			// At computes s0 + (s1-s0)*(t-t0)/(t1-t0) inside a segment,
			// where t-t0 < t1-t0: a finite span and product keep it finite.
			span := w.Times[i] - w.Times[i-1]
			if math.IsInf(span, 0) || math.IsInf((w.Scales[i]-w.Scales[i-1])*span, 0) {
				return nil, fmt.Errorf("waveform %q: segment %d is too wide or too steep to interpolate", s, i)
			}
		}
		return w, nil
	default:
		return nil, fmt.Errorf("waveform %q: want steady, breathing:<period>, or table:<t>=<s>,...", s)
	}
}

// InletVelocityAt evaluates the inlet Dirichlet velocity at simulation
// time t. A nil Inflow returns InletVelocity unchanged — not even a
// multiply by 1.0 — so pre-waveform runs remain bit-identical.
func (c Config) InletVelocityAt(t float64) mesh.Vec3 {
	if c.Inflow == nil {
		return c.InletVelocity
	}
	return c.InletVelocity.Scale(c.Inflow.At(t))
}
