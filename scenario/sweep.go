package scenario

import (
	"context"
	"fmt"
	"sort"
)

// SweepPoint is one cell of a dosage-sweep grid: a particle diameter, an
// inlet face speed, and a mesh refinement. The sweep family (Williams et
// al.'s dosage/size studies over Choi et al.'s flow conditions) runs one
// full simulation per point and aggregates deposition efficiencies.
type SweepPoint struct {
	Diameter float64 // particle diameter (m)
	Flow     float64 // inlet face speed (m/s), waveform peak
	MeshGens int     // airway mesh bronchial generations
}

// Label renders the point as a table row label, diameter in micrometers.
func (pt SweepPoint) Label() string {
	return fmt.Sprintf("d=%gum q=%g g=%d", pt.Diameter*1e6, pt.Flow, pt.MeshGens)
}

// SweepAxes are the three sweep dimensions. Axes are set-like: Grid
// canonicalizes them (ascending, deduplicated), so the same set of
// values always produces the same point order regardless of how the
// caller listed them — which keeps sweep artifacts (and the service
// cache, via CanonicalKey) deterministic.
type SweepAxes struct {
	Diameters []float64
	Flows     []float64
	Gens      []int
}

// SweepAxes resolves the effective axes: each axis that p sets replaces
// the scenario default def, then everything is canonicalized.
func (p Params) SweepAxes(def SweepAxes) SweepAxes {
	a := def
	if len(p.SweepDiameters) > 0 {
		a.Diameters = p.SweepDiameters
	}
	if len(p.SweepFlows) > 0 {
		a.Flows = p.SweepFlows
	}
	if len(p.SweepGens) > 0 {
		a.Gens = p.SweepGens
	}
	return a.canonical()
}

// canonical returns a copy with each axis sorted ascending and
// deduplicated.
func (a SweepAxes) canonical() SweepAxes {
	c := SweepAxes{
		Diameters: append([]float64(nil), a.Diameters...),
		Flows:     append([]float64(nil), a.Flows...),
		Gens:      append([]int(nil), a.Gens...),
	}
	sort.Float64s(c.Diameters)
	sort.Float64s(c.Flows)
	sort.Ints(c.Gens)
	c.Diameters = dedupFloats(c.Diameters)
	c.Flows = dedupFloats(c.Flows)
	c.Gens = dedupInts(c.Gens)
	return c
}

func dedupFloats(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Cardinality is the number of grid points the axes span.
func (a SweepAxes) Cardinality() int {
	return len(a.Diameters) * len(a.Flows) * len(a.Gens)
}

// Grid expands the canonicalized axes into the full cartesian product,
// diameter-major (then flow, then generations): rows of the sweep table
// group naturally by species.
func (a SweepAxes) Grid() []SweepPoint {
	c := a.canonical()
	pts := make([]SweepPoint, 0, c.Cardinality())
	for _, d := range c.Diameters {
		for _, q := range c.Flows {
			for _, g := range c.Gens {
				pts = append(pts, SweepPoint{Diameter: d, Flow: q, MeshGens: g})
			}
		}
	}
	return pts
}

// Coster is implemented by scenarios whose admission cost depends on
// their parameters — a sweep's cost grows with its grid cardinality, so
// a flat per-scenario estimate would let one big sweep stampede past the
// service's admission control.
type Coster interface {
	EstimateCost(p Params) int64
}

// costedScenario is a funcScenario with a parameter-dependent cost.
type costedScenario struct {
	Scenario
	cost func(p Params) int64
}

// NewCosted wraps a run function into a Scenario that also implements
// Coster with the given cost estimator.
func NewCosted(name, describe string, tags []string, run func(ctx context.Context, p Params) (*Artifact, error), cost func(p Params) int64) Scenario {
	return &costedScenario{Scenario: New(name, describe, tags, run), cost: cost}
}

// EstimateCost reports the admission cost of running the scenario with p.
func (s *costedScenario) EstimateCost(p Params) int64 { return s.cost(p) }
