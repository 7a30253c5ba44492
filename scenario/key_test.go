package scenario

import (
	"cmp"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/coupling"
	"repro/internal/navierstokes"
	"repro/internal/tasking"
)

// TestCanonicalKeyDeterministic: identically configured Params produce
// identical keys however they were built, and the zero value is empty.
func TestCanonicalKeyDeterministic(t *testing.T) {
	if k := (Params{}).CanonicalKey(); k != "" {
		t.Fatalf("zero Params key = %q, want empty", k)
	}
	a := NewParams(WithRanks(8), WithSteps(3), WithDLB(true))
	b := Params{Ranks: 8, Steps: 3}
	on := true
	b.DLB = &on
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("equivalent Params differ: %q vs %q", a.CanonicalKey(), b.CanonicalKey())
	}
	// Pointer fields key by value, not by pointer identity.
	c := NewParams(WithMode(coupling.Coupled), WithStrategy(tasking.StrategyMultidep))
	d := NewParams(WithMode(coupling.Coupled), WithStrategy(tasking.StrategyMultidep))
	if c.CanonicalKey() != d.CanonicalKey() {
		t.Fatal("pointer fields must key by value")
	}
}

// TestCanonicalKeyDistinguishes: changing any set field changes the key.
func TestCanonicalKeyDistinguishes(t *testing.T) {
	off := false
	variants := []Params{
		{},
		{Ranks: 8},
		{Ranks: 9},
		{ParticleRanks: 8},
		{Steps: 8},
		NewParams(WithParticles(8)),
		NewParams(WithParticles(0)),
		{MeshGenerations: 8},
		{Workers: 8},
		{Width: 8},
		{Rows: 8},
		{Seed: 8},
		{DLB: &off},
		NewParams(WithMode(coupling.Coupled)),
		NewParams(WithStrategy(tasking.StrategyColoring)),
		NewParams(WithSGSStrategy(tasking.StrategyColoring)),
		{Platforms: []string{"Thunder"}},
	}
	seen := map[string]int{}
	for i, p := range variants {
		k := p.CanonicalKey()
		if j, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d collide on %q", j, i, k)
		}
		seen[k] = i
	}
}

// TestCanonicalKeyPlatformsSetLike: platform order and duplicates do not
// matter (selection semantics are set-like).
func TestCanonicalKeyPlatformsSetLike(t *testing.T) {
	a := Params{Platforms: []string{"Thunder", "MareNostrum4"}}
	b := Params{Platforms: []string{"MareNostrum4", "Thunder", "MareNostrum4"}}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("platform order/dups changed the key: %q vs %q", a.CanonicalKey(), b.CanonicalKey())
	}
}

// TestCanonicalKeyWaveform: waveforms key by their String() encoding —
// two equivalent waveforms (parsed vs constructed) share a key, distinct
// waveforms do not, and an unset Inflow adds nothing.
func TestCanonicalKeyWaveform(t *testing.T) {
	parsed, err := navierstokes.ParseWaveform("breathing:0.5")
	if err != nil {
		t.Fatal(err)
	}
	a := NewParams(WithInflow(parsed))
	b := Params{Inflow: navierstokes.BreathingWaveform{Period: 0.5}}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("equivalent waveforms differ: %q vs %q", a.CanonicalKey(), b.CanonicalKey())
	}
	c := Params{Inflow: navierstokes.BreathingWaveform{Period: 0.25}}
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Fatalf("distinct waveforms collide on %q", a.CanonicalKey())
	}
	d := Params{Inflow: navierstokes.SteadyWaveform{}}
	if d.CanonicalKey() == (Params{}).CanonicalKey() {
		t.Fatal("an explicit steady waveform must key differently from unset")
	}
}

// TestCanonicalKeySweepAxesSetLike: sweep axes are set-like — order and
// duplicates do not change the key, different values do, and unset axes
// add nothing.
func TestCanonicalKeySweepAxesSetLike(t *testing.T) {
	a := NewParams(
		WithSweepDiameters(10e-6, 2.5e-6, 10e-6),
		WithSweepFlows(1.5, 0.9),
		WithSweepGens(3, 2, 3),
	)
	b := Params{
		SweepDiameters: []float64{2.5e-6, 10e-6},
		SweepFlows:     []float64{0.9, 1.5},
		SweepGens:      []int{2, 3},
	}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("axis order/dups changed the key: %q vs %q", a.CanonicalKey(), b.CanonicalKey())
	}
	// The caller's slices must not be reordered by keying.
	if a.SweepDiameters[0] != 10e-6 || a.SweepGens[0] != 3 {
		t.Fatal("CanonicalKey mutated the caller's sweep axes")
	}
	variants := []Params{
		{},
		{SweepDiameters: []float64{2.5e-6}},
		{SweepDiameters: []float64{10e-6}},
		{SweepFlows: []float64{2.5e-6}},
		{SweepGens: []int{2}},
		b,
	}
	seen := map[string]int{}
	for i, p := range variants {
		k := p.CanonicalKey()
		if j, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d collide on %q", j, i, k)
		}
		seen[k] = i
	}
}

// setNormalized returns p with its set-like fields (Platforms and the
// sweep axes) sorted and deduplicated, so two Params that select the same
// sets compare equal.
func setNormalized(p Params) Params {
	p.Platforms = sortedUniq(p.Platforms)
	p.SweepDiameters = sortedUniq(p.SweepDiameters)
	p.SweepFlows = sortedUniq(p.SweepFlows)
	p.SweepGens = sortedUniq(p.SweepGens)
	return p
}

func sortedUniq[T cmp.Ordered](vs []T) []T {
	if len(vs) == 0 {
		return nil
	}
	out := slices.Clone(vs)
	slices.Sort(out)
	return slices.Compact(out)
}

// FuzzCanonicalKey: two specs that both resolve may share a key only if
// they configure the same Params up to the order and repeats of their
// set-like fields. The job memo serves one spec's cached artifact to the
// other when their keys match.
func FuzzCanonicalKey(f *testing.F) {
	for _, pair := range [][2]string{
		{`{"platforms":["Thunder;seed=5"]}`, `{"platforms":["Thunder"],"seed":5}`},
		{`{"platforms":["MareNostrum4+Thunder"]}`, `{"platforms":["MareNostrum4","Thunder"]}`},
		{`{"platforms":["Thunder","MareNostrum4","Thunder"]}`, `{"platforms":["MareNostrum4","Thunder"]}`},
		{`{"sweepGens":[3,2,3],"sweepDiameters":[1e-5,2.5e-6]}`, `{"sweepGens":[2,3],"sweepDiameters":[2.5e-6,1e-5]}`},
		{`{"inflow":"breathing:1"}`, `{"inflow":"breathing:1.0"}`},
		{`{"inflow":"table:0=1,1=2"}`, `{"inflow":"table:0=1,1=2","seed":0}`},
		{`{"particles":0}`, `{}`},
		{`{"ranks":8,"mode":"coupled"}`, `{"mode":"coupled","ranks":8,"particleRanks":0}`},
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var sa, sb ParamsSpec
		if json.Unmarshal(a, &sa) != nil || json.Unmarshal(b, &sb) != nil {
			return
		}
		pa, err := sa.Params()
		if err != nil {
			return
		}
		pb, err := sb.Params()
		if err != nil {
			return
		}
		if pa.CanonicalKey() != pb.CanonicalKey() {
			return
		}
		if !reflect.DeepEqual(setNormalized(pa), setNormalized(pb)) {
			t.Fatalf("specs %s and %s resolve to different Params but share the key %q", a, b, pa.CanonicalKey())
		}
	})
}
