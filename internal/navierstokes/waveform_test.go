package navierstokes

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mesh"
)

func TestParseWaveformRoundTrip(t *testing.T) {
	// String() output must parse back to an equivalent waveform: the
	// string is both the CLI/API vocabulary and the CanonicalKey token.
	for _, in := range []string{
		"steady",
		"breathing:0.5",
		"breathing:0.0008",
		"table:0=0,0.1=1,0.2=0.5",
	} {
		w, err := ParseWaveform(in)
		if err != nil {
			t.Fatalf("ParseWaveform(%q): %v", in, err)
		}
		w2, err := ParseWaveform(w.String())
		if err != nil {
			t.Fatalf("ParseWaveform(%q -> %q): %v", in, w.String(), err)
		}
		for _, tm := range []float64{0, 0.03, 0.1, 0.17, 1.2} {
			if a, b := w.At(tm), w2.At(tm); a != b {
				t.Fatalf("%q: At(%g) differs after round trip: %g vs %g", in, tm, a, b)
			}
		}
	}
}

func TestParseWaveformRejects(t *testing.T) {
	for _, in := range []string{
		"", "nope", "breathing:", "breathing:0", "breathing:-1",
		"breathing:x", "table:", "table:1", "table:a=b",
		"table:0.2=1,0.1=0", // times must be strictly increasing
		"table:0=1,0=2",
		"table:0=NaN", "table:0=Inf", "table:0=-Inf", "table:NaN=1",
		"table:0=1,Inf=2", "table:-Inf=1,0=2",
		"table:0=1e308",          // past maxTableScale
		"table:-1e308=0,1e308=1", // the span overflows
		"table:0=0,1e300=4e307",  // the rise times the span overflows
	} {
		if _, err := ParseWaveform(in); err == nil {
			t.Errorf("ParseWaveform(%q): want error, got nil", in)
		}
	}
}

func TestSteadyWaveformIdentity(t *testing.T) {
	w := SteadyWaveform{}
	for _, tm := range []float64{0, 1e-4, 3.7} {
		if got := w.At(tm); got != 1 {
			t.Fatalf("SteadyWaveform.At(%g) = %g, want 1", tm, got)
		}
	}
}

func TestBreathingWaveform(t *testing.T) {
	w := BreathingWaveform{Period: 2}
	for _, tc := range []struct{ t, want float64 }{
		{0, 0}, {0.5, 1}, {1, 0}, {1.5, -1}, {2, 0},
	} {
		if got := w.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("BreathingWaveform{2}.At(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestTabulatedWaveformInterp(t *testing.T) {
	w := TabulatedWaveform{Times: []float64{0, 1, 3}, Scales: []float64{0, 2, 1}}
	for _, tc := range []struct{ t, want float64 }{
		{-1, 0},  // clamp below
		{0, 0},   // exact knot
		{0.5, 1}, // linear between knots
		{1, 2},
		{2, 1.5},
		{3, 1},
		{9, 1}, // clamp above
	} {
		if got := w.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("At(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestInletVelocityAt(t *testing.T) {
	cfg := DefaultConfig()
	// nil Inflow returns InletVelocity itself, untouched — the
	// bit-identity guarantee behind the pinned goldens.
	if got := cfg.InletVelocityAt(0.123); got != cfg.InletVelocity {
		t.Fatalf("nil inflow: got %v, want %v", got, cfg.InletVelocity)
	}
	cfg.Inflow = TabulatedWaveform{Times: []float64{0, 1}, Scales: []float64{0, 1}}
	want := mesh.Vec3{Z: cfg.InletVelocity.Z * 0.5}
	if got := cfg.InletVelocityAt(0.5); got != want {
		t.Fatalf("tabulated inflow at 0.5: got %v, want %v", got, want)
	}
}

// TestBreathingWaveformFiniteFarOut: a phase that overflows falls back to
// t's remainder modulo the period, so the scale stays finite.
func TestBreathingWaveformFiniteFarOut(t *testing.T) {
	for _, w := range []BreathingWaveform{{Period: 1}, {Period: 5e-324}} {
		for _, tm := range []float64{math.MaxFloat64, -math.MaxFloat64, 1e300, 1} {
			if v := w.At(tm); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%v.At(%g) = %g, want finite", w, tm, v)
			}
		}
	}
}

// FuzzParseWaveform: ParseWaveform never panics; an accepted waveform
// gives a finite scale at every finite time, and its String() parses back
// to an equal waveform.
func FuzzParseWaveform(f *testing.F) {
	for _, s := range []string{
		"steady", "breathing:0.5", "breathing:5e-324", "table:0=0,0.1=1,0.2=0.5",
		"table:0=NaN", "table:NaN=1", "table:-1=-2e307,1=2e307", "table:-0=1",
	} {
		f.Add(s, 0.05)
	}
	f.Fuzz(func(t *testing.T, s string, tm float64) {
		w, err := ParseWaveform(s)
		if err != nil {
			return
		}
		probes := []float64{tm, 0, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
		if tab, ok := w.(TabulatedWaveform); ok {
			for i, t1 := range tab.Times {
				probes = append(probes, t1, math.Nextafter(t1, math.Inf(1)), math.Nextafter(t1, math.Inf(-1)))
				if i > 0 {
					t0 := tab.Times[i-1]
					probes = append(probes, t0/2+t1/2)
				}
			}
		}
		for _, x := range probes {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			if v := w.At(x); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q: At(%g) = %g", s, x, v)
			}
		}
		again, err := ParseWaveform(w.String())
		if err != nil {
			t.Fatalf("%q: String() %q does not parse: %v", s, w.String(), err)
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("%q: String() %q parses to %#v, want %#v", s, w.String(), again, w)
		}
	})
}
