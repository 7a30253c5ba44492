package scenario

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/coupling"
	"repro/internal/navierstokes"
	"repro/internal/tasking"
)

// ErrBadParams marks a parameter-validation failure. It classifies the
// error as permanent: resubmitting the same values can only fail the
// same way, so the service fails such jobs fast instead of retrying.
var ErrBadParams = errors.New("invalid parameters")

// ParseMode resolves a CLI/API execution-mode name ("sync" or "coupled")
// to a coupling.Mode. Unknown names are an error listing the vocabulary.
func ParseMode(name string) (coupling.Mode, error) {
	switch name {
	case "sync", "synchronous":
		return coupling.Synchronous, nil
	case "coupled":
		return coupling.Coupled, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want sync or coupled)", name)
}

// ParseStrategy resolves a CLI/API assembly-strategy name to a
// tasking.Strategy. Unknown names are an error listing the vocabulary.
func ParseStrategy(name string) (tasking.Strategy, error) {
	switch name {
	case "serial":
		return tasking.StrategySerial, nil
	case "atomics":
		return tasking.StrategyAtomic, nil
	case "coloring":
		return tasking.StrategyColoring, nil
	case "multidep":
		return tasking.StrategyMultidep, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want serial, atomics, coloring, or multidep)", name)
}

// CheckPositive rejects a count that must be at least 1 (steps, ranks,
// mesh generations, worker threads). It is the shared validation both
// the respira subcommands (exit 2) and the service's job decoding (HTTP 400)
// apply before any simulation work starts.
func CheckPositive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%w: %s must be >= 1, got %d", ErrBadParams, name, v)
	}
	return nil
}

// CheckNonNegative rejects a count that may be zero but not negative
// (particles, ranks-per-node).
func CheckNonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%w: %s must be >= 0, got %d", ErrBadParams, name, v)
	}
	return nil
}

// ParamsSpec is the wire form of Params: every field optional (nil =
// keep the scenario's default), modes and strategies by name. It is what
// the service's POST /jobs body carries under "options" and what the
// CLIs bind their override flags to (see Flag); Params() validates and
// resolves it, so a bad value is rejected before any work starts, with
// the same rules on every front end.
type ParamsSpec struct {
	Ranks           *int     `json:"ranks,omitempty"`
	ParticleRanks   *int     `json:"particleRanks,omitempty"`
	Mode            *string  `json:"mode,omitempty"`
	Strategy        *string  `json:"strategy,omitempty"`
	SGSStrategy     *string  `json:"sgsStrategy,omitempty"`
	DLB             *bool    `json:"dlb,omitempty"`
	MeshGenerations *int     `json:"meshGenerations,omitempty"`
	Particles       *int     `json:"particles,omitempty"`
	Steps           *int     `json:"steps,omitempty"`
	Workers         *int     `json:"workers,omitempty"`
	Platforms       []string `json:"platforms,omitempty"`
	Width           *int     `json:"width,omitempty"`
	Rows            *int     `json:"rows,omitempty"`
	Seed            *int64   `json:"seed,omitempty"`
	// Inflow is a waveform description: "steady", "breathing:<period>",
	// or "table:<t0>=<s0>,<t1>=<s1>,...".
	Inflow *string `json:"inflow,omitempty"`
	// Sweep axes for sweep-family scenarios.
	SweepDiameters []float64 `json:"sweepDiameters,omitempty"`
	SweepFlows     []float64 `json:"sweepFlows,omitempty"`
	SweepGens      []int     `json:"sweepGens,omitempty"`
}

// Params validates the spec and resolves it into a Params value. The
// first offending field fails the whole spec with an error wrapping
// ErrBadParams; nothing is partially applied.
func (s ParamsSpec) Params() (Params, error) {
	var p Params
	checks := []struct {
		name string
		v    *int
		fn   func(string, int) error
		dst  *int
	}{
		{"ranks", s.Ranks, CheckPositive, &p.Ranks},
		{"particleRanks", s.ParticleRanks, CheckNonNegative, &p.ParticleRanks},
		{"meshGenerations", s.MeshGenerations, CheckPositive, &p.MeshGenerations},
		{"steps", s.Steps, CheckPositive, &p.Steps},
		{"workers", s.Workers, CheckPositive, &p.Workers},
		{"width", s.Width, CheckPositive, &p.Width},
		{"rows", s.Rows, CheckPositive, &p.Rows},
	}
	for _, c := range checks {
		if c.v == nil {
			continue
		}
		if err := c.fn(c.name, *c.v); err != nil {
			return Params{}, err
		}
		*c.dst = *c.v
	}
	if s.Particles != nil {
		if err := CheckNonNegative("particles", *s.Particles); err != nil {
			return Params{}, err
		}
		n := *s.Particles
		p.Particles = &n
	}
	bad := func(err error) (Params, error) { return Params{}, fmt.Errorf("%w: %v", ErrBadParams, err) }
	if s.Mode != nil {
		m, err := ParseMode(*s.Mode)
		if err != nil {
			return bad(err)
		}
		p.Mode = &m
	}
	if s.Strategy != nil {
		st, err := ParseStrategy(*s.Strategy)
		if err != nil {
			return bad(err)
		}
		p.Strategy = &st
	}
	if s.SGSStrategy != nil {
		st, err := ParseStrategy(*s.SGSStrategy)
		if err != nil {
			return bad(fmt.Errorf("sgsStrategy: %w", err))
		}
		p.SGSStrategy = &st
	}
	if s.DLB != nil {
		p.DLB = s.DLB
	}
	// Only exact machine names: CanonicalKey joins platform names with
	// '+' among ';'-separated fields, so a free-form name could spell
	// another spec's key.
	for _, name := range s.Platforms {
		if !slices.ContainsFunc(arch.Platforms(), func(p arch.Profile) bool { return p.Name == name }) {
			return bad(fmt.Errorf("unknown platform %q (want MareNostrum4 or Thunder)", name))
		}
	}
	if len(s.Platforms) > 0 {
		p.Platforms = append([]string(nil), s.Platforms...)
	}
	if s.Seed != nil {
		p.Seed = *s.Seed
	}
	if s.Inflow != nil {
		w, err := navierstokes.ParseWaveform(*s.Inflow)
		if err != nil {
			return bad(err)
		}
		p.Inflow = w
	}
	// JSON cannot carry ±Inf, but the CLIs' flag binder parses "Inf".
	for _, d := range s.SweepDiameters {
		if !(d > 0) || math.IsInf(d, 1) {
			return bad(fmt.Errorf("sweepDiameters must be positive and finite, got %g", d))
		}
	}
	for _, q := range s.SweepFlows {
		if !(q > 0) || math.IsInf(q, 1) {
			return bad(fmt.Errorf("sweepFlows must be positive and finite, got %g", q))
		}
	}
	for _, g := range s.SweepGens {
		if err := CheckPositive("sweepGens", g); err != nil {
			return Params{}, err
		}
	}
	if len(s.SweepDiameters) > 0 {
		p.SweepDiameters = append([]float64(nil), s.SweepDiameters...)
	}
	if len(s.SweepFlows) > 0 {
		p.SweepFlows = append([]float64(nil), s.SweepFlows...)
	}
	if len(s.SweepGens) > 0 {
		p.SweepGens = append([]int(nil), s.SweepGens...)
	}
	return p, nil
}
