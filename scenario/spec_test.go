package scenario

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/coupling"
	"repro/internal/tasking"
)

func iptr(v int) *int       { return &v }
func sptr(v string) *string { return &v }

// TestParamsSpecResolves: a fully populated spec resolves every field.
func TestParamsSpecResolves(t *testing.T) {
	on := true
	seed := int64(42)
	spec := ParamsSpec{
		Ranks: iptr(8), ParticleRanks: iptr(2),
		Mode: sptr("coupled"), Strategy: sptr("multidep"),
		DLB: &on, MeshGenerations: iptr(3), Particles: iptr(1000),
		Steps: iptr(4), Workers: iptr(2), Platforms: []string{"Thunder"},
		Width: iptr(90), Rows: iptr(10), Seed: &seed,
	}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranks != 8 || p.ParticleRanks != 2 || p.MeshGenerations != 3 ||
		p.Particles == nil || *p.Particles != 1000 || p.Steps != 4 || p.Workers != 2 ||
		p.Width != 90 || p.Rows != 10 || p.Seed != 42 {
		t.Fatalf("resolved params = %+v", p)
	}
	if p.Mode == nil || *p.Mode != coupling.Coupled {
		t.Fatalf("mode = %v", p.Mode)
	}
	if p.Strategy == nil || *p.Strategy != tasking.StrategyMultidep {
		t.Fatalf("strategy = %v", p.Strategy)
	}
	if p.DLB == nil || !*p.DLB {
		t.Fatalf("dlb = %v", p.DLB)
	}
	if len(p.Platforms) != 1 || p.Platforms[0] != "Thunder" {
		t.Fatalf("platforms = %v", p.Platforms)
	}
	// Empty spec resolves to zero Params (scenario defaults).
	p, err = ParamsSpec{}.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.CanonicalKey() != "" {
		t.Fatalf("empty spec params = %+v", p)
	}
}

// TestParamsSpecRejects: the validation the CLIs exit(2) on and the
// service 400s on — nonsensical counts and unknown vocabulary.
func TestParamsSpecRejects(t *testing.T) {
	cases := map[string]ParamsSpec{
		"steps -1":         {Steps: iptr(-1)},
		"steps 0":          {Steps: iptr(0)},
		"gens 0":           {MeshGenerations: iptr(0)},
		"particles -5":     {Particles: iptr(-5)},
		"ranks 0":          {Ranks: iptr(0)},
		"workers 0":        {Workers: iptr(0)},
		"particleRanks -1": {ParticleRanks: iptr(-1)},
		"width 0":          {Width: iptr(0)},
		"rows -2":          {Rows: iptr(-2)},
		"unknown strategy": {Strategy: sptr("speculative")},
		"unknown mode":     {Mode: sptr("warp")},
	}
	for name, spec := range cases {
		if _, err := spec.Params(); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: err = %v, want ErrBadParams", name, err)
		}
	}
	// Zero particles is legal (a fluid-only run) and stays set.
	p, err := (ParamsSpec{Particles: iptr(0)}).Params()
	if err != nil || p.Particles == nil || *p.Particles != 0 {
		t.Errorf("particles 0: params %+v, err %v", p, err)
	}
}

// TestParamsSpecJSONRoundTrip: the wire form decodes into the spec and
// resolves, which is exactly the service's POST /jobs options path.
func TestParamsSpecJSONRoundTrip(t *testing.T) {
	var spec ParamsSpec
	body := `{"ranks":24,"steps":2,"strategy":"atomics","dlb":false,"platforms":["MareNostrum4"]}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranks != 24 || p.Steps != 2 || p.Strategy == nil || *p.Strategy != tasking.StrategyAtomic ||
		p.DLB == nil || *p.DLB {
		t.Fatalf("params = %+v", p)
	}
}

// TestParseVocabulary: mode and strategy names accepted by both CLIs and
// the service.
func TestParseVocabulary(t *testing.T) {
	for name, want := range map[string]tasking.Strategy{
		"serial": tasking.StrategySerial, "atomics": tasking.StrategyAtomic,
		"coloring": tasking.StrategyColoring, "multidep": tasking.StrategyMultidep,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("Multidep"); err == nil || !strings.Contains(err.Error(), "multidep") {
		t.Fatalf("unknown strategy error must list the vocabulary: %v", err)
	}
	for name, want := range map[string]coupling.Mode{
		"sync": coupling.Synchronous, "synchronous": coupling.Synchronous, "coupled": coupling.Coupled,
	} {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestParamsSpecWaveformAndSweep: the new inflow/sweep fields resolve
// and validate like the rest of the spec — bad values fail the whole
// spec before any work starts.
func TestParamsSpecWaveformAndSweep(t *testing.T) {
	spec := ParamsSpec{
		Inflow:         sptr("breathing:0.5"),
		SweepDiameters: []float64{2.5e-6, 10e-6},
		SweepFlows:     []float64{0.9},
		SweepGens:      []int{2, 3},
	}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Inflow == nil || p.Inflow.String() != "breathing:0.5" {
		t.Fatalf("inflow = %v", p.Inflow)
	}
	if len(p.SweepDiameters) != 2 || len(p.SweepFlows) != 1 || len(p.SweepGens) != 2 {
		t.Fatalf("sweep axes = %+v", p)
	}
	// Resolved axes are copies, not aliases of the spec's slices.
	spec.SweepDiameters[0] = 99
	if p.SweepDiameters[0] == 99 {
		t.Fatal("resolved SweepDiameters aliases the spec slice")
	}

	for _, bad := range []ParamsSpec{
		{Inflow: sptr("whoosh")},
		{Inflow: sptr("breathing:-1")},
		{SweepDiameters: []float64{2.5e-6, -1}},
		{SweepFlows: []float64{0}},
		{SweepGens: []int{2, 0}},
	} {
		if _, err := bad.Params(); !errors.Is(err, ErrBadParams) {
			t.Errorf("spec %+v: err = %v, want ErrBadParams", bad, err)
		}
	}
}

// TestParamsSpecWaveformJSON: the wire form round-trips through JSON the
// way `respira serve`'s POST /jobs body carries it.
func TestParamsSpecWaveformJSON(t *testing.T) {
	var spec ParamsSpec
	body := `{"inflow":"table:0=0,0.1=1","sweepDiameters":[1e-6],"sweepFlows":[1.2],"sweepGens":[2]}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Inflow == nil || p.Inflow.String() != "table:0=0,0.1=1" {
		t.Fatalf("inflow = %v", p.Inflow)
	}
	if p.SweepGens[0] != 2 {
		t.Fatalf("sweepGens = %v", p.SweepGens)
	}
}

// specKeys lists the JSON key of every ParamsSpec field.
func specKeys() []string {
	var keys []string
	t := reflect.TypeOf(ParamsSpec{})
	for i := 0; i < t.NumField(); i++ {
		keys = append(keys, strings.Split(t.Field(i).Tag.Get("json"), ",")[0])
	}
	return keys
}

// TestParamsSpecRejectionsTyped: one bad value per validated field, each
// rejected with an error wrapping ErrBadParams (the service's fail-fast
// classification and the CLIs' exit 2). The table must name every
// field: a new one is either validated here or listed as free.
func TestParamsSpecRejectionsTyped(t *testing.T) {
	bad := map[string]string{
		"ranks":           `{"ranks":0}`,
		"particleRanks":   `{"particleRanks":-1}`,
		"mode":            `{"mode":"warp"}`,
		"strategy":        `{"strategy":"speculative"}`,
		"meshGenerations": `{"meshGenerations":0}`,
		"particles":       `{"particles":-1}`,
		"steps":           `{"steps":0}`,
		"workers":         `{"workers":0}`,
		"width":           `{"width":0}`,
		"rows":            `{"rows":0}`,
		"inflow":          `{"inflow":"whoosh"}`,
		"sweepDiameters":  `{"sweepDiameters":[1e-6,0]}`,
		"sweepFlows":      `{"sweepFlows":[-1]}`,
		"sweepGens":       `{"sweepGens":[2,0]}`,
		"platforms":       `{"platforms":["NoSuchMachine"]}`,
	}
	free := map[string]bool{"dlb": true, "seed": true}
	for _, key := range specKeys() {
		body, ok := bad[key]
		if !ok {
			if !free[key] {
				t.Errorf("field %q has no rejection case and is not listed as free", key)
			}
			continue
		}
		var spec ParamsSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if _, err := spec.Params(); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: err = %v, want ErrBadParams", key, err)
		}
	}
	// Platform names that spelled another spec's CanonicalKey, and names
	// that differ from a machine only in case or spacing.
	for _, names := range [][]string{
		{"Thunder;seed=5"}, {"MareNostrum4+Thunder"}, {"Thunder", ""}, {"thunder"}, {" Thunder"},
	} {
		spec := ParamsSpec{Platforms: names}
		if _, err := spec.Params(); !errors.Is(err, ErrBadParams) {
			t.Errorf("platforms %q: err = %v, want ErrBadParams", names, err)
		}
	}
	// Tables with a non-finite time or scale: table:NaN=1 used to pass
	// and then panic in At.
	for _, inflow := range []string{"table:0=NaN", "table:0=Inf", "table:NaN=1", "table:0=1,Inf=2"} {
		spec := ParamsSpec{Inflow: &inflow}
		if _, err := spec.Params(); !errors.Is(err, ErrBadParams) {
			t.Errorf("inflow %q: err = %v, want ErrBadParams", inflow, err)
		}
	}
	// Infinite sweep axes, which the flag binder parses from "Inf":
	// respira fig -sweep-d Inf used to run and report d=+Infum.
	for _, spec := range []ParamsSpec{
		{SweepDiameters: []float64{math.Inf(1)}}, {SweepDiameters: []float64{1e-6, math.Inf(-1)}},
		{SweepFlows: []float64{math.Inf(1)}}, {SweepFlows: []float64{math.Inf(-1)}},
	} {
		if _, err := spec.Params(); !errors.Is(err, ErrBadParams) {
			t.Errorf("sweep axes %v %v: err = %v, want ErrBadParams", spec.SweepDiameters, spec.SweepFlows, err)
		}
	}
}

// TestFlagBindsEveryKey: every ParamsSpec JSON key binds to a flag, an
// unset flag leaves its field nil, and the bound values resolve to the
// same Params as the same options in a POST /jobs body.
func TestFlagBindsEveryKey(t *testing.T) {
	values := map[string]string{
		"ranks": "8", "particleRanks": "2", "mode": "coupled", "strategy": "coloring",
		"dlb": "true", "meshGenerations": "3", "particles": "0",
		"steps": "4", "workers": "2", "platforms": "Thunder, MareNostrum4", "width": "60",
		"rows": "5", "seed": "42", "inflow": "breathing:0.5",
		"sweepDiameters": "2.5e-6,10e-6", "sweepFlows": "0.9,", "sweepGens": "2,3",
	}
	body := `{"ranks":8,"particleRanks":2,"mode":"coupled","strategy":"coloring",
		"dlb":true,"meshGenerations":3,"particles":0,
		"steps":4,"workers":2,"platforms":["Thunder","MareNostrum4"],"width":60,
		"rows":5,"seed":42,"inflow":"breathing:0.5",
		"sweepDiameters":[2.5e-6,10e-6],"sweepFlows":[0.9],"sweepGens":[2,3]}`
	var spec ParamsSpec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var args []string
	for _, key := range specKeys() {
		v, ok := values[key]
		if !ok {
			t.Fatalf("no flag value for key %q", key)
		}
		fs.Var(spec.Flag(key), key, "")
		args = append(args, "-"+key+"="+v)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if spec.Ranks != nil || spec.Particles != nil || spec.SweepGens != nil {
		t.Fatalf("unset flags populated the spec: %+v", spec)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	got, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	var wire ParamsSpec
	if err := json.Unmarshal([]byte(body), &wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, wire) {
		t.Fatalf("flag-bound spec differs from the wire spec:\nflags %+v\nwire  %+v", spec, wire)
	}
	want, err := wire.Params()
	if err != nil {
		t.Fatal(err)
	}
	if got.CanonicalKey() != want.CanonicalKey() {
		t.Fatalf("flag key %q, wire key %q", got.CanonicalKey(), want.CanonicalKey())
	}

	// A bool binds as a bare flag; syntax errors fail the parse.
	var bare ParamsSpec
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	fs.Var(bare.Flag("dlb"), "dlb", "")
	fs.Var(bare.Flag("ranks"), "ranks", "")
	if err := fs.Parse([]string{"-dlb"}); err != nil || bare.DLB == nil || !*bare.DLB {
		t.Fatalf("bare -dlb: %v, %v", bare.DLB, err)
	}
	if err := fs.Parse([]string{"-ranks", "x"}); err == nil {
		t.Fatal("-ranks x parsed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown key did not panic")
		}
	}()
	bare.Flag("nosuch")
}

// FuzzParamsSpec: arbitrary JSON, with an optional CLI override
// ("key=value", bound through Flag) on top, never panics the
// decode-and-validate path, and an accepted spec's CanonicalKey survives
// a marshal round-trip of the spec (what a persisted job manifest
// relies on).
func FuzzParamsSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"ranks":24,"steps":2,"strategy":"atomics","dlb":false,"platforms":["MareNostrum4"]}`,
		`{"particles":0,"mode":"sync","strategy":"multidep","seed":-3}`,
		`{"inflow":"table:0=0,0.1=1","sweepDiameters":[1e-6,1e-6],"sweepFlows":[1.2],"sweepGens":[3,2]}`,
		`{"inflow":"breathing:0.0008","width":60,"rows":4,"meshGenerations":2}`,
		`{"steps":-1}`,
		`[1,2]`,
	} {
		f.Add([]byte(seed), "")
	}
	f.Add([]byte(`{"sweepFlows":[1]}`), "sweepDiameters=1e-6,Inf")
	f.Fuzz(func(t *testing.T, data []byte, override string) {
		var spec ParamsSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if key, val, ok := strings.Cut(override, "="); ok {
			if !slices.Contains(specKeys(), key) || spec.Flag(key).Set(val) != nil {
				return
			}
		}
		p, err := spec.Params()
		if err != nil {
			if !errors.Is(err, ErrBadParams) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back ParamsSpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decode %s: %v", out, err)
		}
		q, err := back.Params()
		if err != nil {
			t.Fatalf("round-tripped spec %s rejected: %v", out, err)
		}
		if p.CanonicalKey() != q.CanonicalKey() {
			t.Fatalf("key %q became %q after a round-trip through %s", p.CanonicalKey(), q.CanonicalKey(), out)
		}
	})
}
