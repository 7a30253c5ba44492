package scenario

import (
	"context"
	"reflect"
	"testing"
)

func TestSweepAxesResolve(t *testing.T) {
	def := SweepAxes{Diameters: []float64{1e-6}, Flows: []float64{1}, Gens: []int{2}}

	// Unset params keep the defaults (canonicalized).
	got := (Params{}).SweepAxes(def)
	if !reflect.DeepEqual(got, def.canonical()) {
		t.Fatalf("unset axes: got %+v", got)
	}

	// A set axis replaces its default; the others stay.
	p := Params{SweepDiameters: []float64{5e-6, 2e-6, 5e-6}}
	got = p.SweepAxes(def)
	if !reflect.DeepEqual(got.Diameters, []float64{2e-6, 5e-6}) {
		t.Fatalf("diameters not replaced+canonicalized: %v", got.Diameters)
	}
	if !reflect.DeepEqual(got.Flows, []float64{1}) || !reflect.DeepEqual(got.Gens, []int{2}) {
		t.Fatalf("unset axes lost their defaults: %+v", got)
	}
	// The caller's slice is not reordered.
	if p.SweepDiameters[0] != 5e-6 {
		t.Fatal("SweepAxes mutated the caller's axis")
	}
}

func TestSweepGridOrder(t *testing.T) {
	a := SweepAxes{
		Diameters: []float64{10e-6, 2.5e-6},
		Flows:     []float64{1.5, 0.9},
		Gens:      []int{2},
	}
	if got := a.Cardinality(); got != 4 {
		t.Fatalf("Cardinality = %d, want 4", got)
	}
	want := []SweepPoint{
		{2.5e-6, 0.9, 2},
		{2.5e-6, 1.5, 2},
		{10e-6, 0.9, 2},
		{10e-6, 1.5, 2},
	}
	if got := a.Grid(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Grid = %v, want %v (diameter-major, axes sorted)", got, want)
	}
}

func TestNewCostedImplementsCoster(t *testing.T) {
	sc := NewCosted("c", "costed", []string{"x"},
		func(_ context.Context, _ Params) (*Artifact, error) {
			return &Artifact{Kind: KindReport}, nil
		},
		func(p Params) int64 { return int64(len(p.SweepGens)) * 10 })
	c, ok := sc.(Coster)
	if !ok {
		t.Fatal("NewCosted scenario does not implement Coster")
	}
	if got := c.EstimateCost(Params{SweepGens: []int{2, 3}}); got != 20 {
		t.Fatalf("EstimateCost = %d, want 20", got)
	}
	if sc.Name() != "c" || sc.Tags()[0] != "x" {
		t.Fatal("NewCosted lost the wrapped scenario identity")
	}
	if _, err := sc.Run(context.Background(), Params{}); err != nil {
		t.Fatal(err)
	}
}
