// Package scenario is the composable experiment layer of the
// reproduction: every workload — each paper table and figure, each
// example simulation, and any new study — implements one small interface,
// registers under a unique name, and returns a typed Artifact that
// renders uniformly to text, JSON, and CSV. A Runner executes a selected
// set of scenarios concurrently with deterministic result ordering,
// progress callbacks, and context cancellation threaded down into the
// simulation step loop.
package scenario

import (
	"context"

	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/tasking"
)

// Scenario is one runnable workload. Run must honor ctx (long runs stop
// at the next step boundary after cancellation) and treat p as a set of
// optional overrides on the scenario's own defaults.
type Scenario interface {
	Name() string
	Describe() string
	Tags() []string
	Run(ctx context.Context, p Params) (*Artifact, error)
}

// Params carries optional overrides a caller can apply to any scenario.
// The zero value means "use the scenario's defaults"; pointer fields
// distinguish "unset" from a meaningful zero. Construct with NewParams
// and functional options, or fill fields directly.
type Params struct {
	// Ranks overrides the (fluid) MPI rank count of measured runs.
	Ranks int
	// ParticleRanks overrides the particle-code rank count (coupled mode).
	ParticleRanks int
	// Mode overrides the execution mode of measured runs.
	Mode *coupling.Mode
	// Strategy and SGSStrategy override the assembly / SGS tasking
	// strategies of measured runs.
	Strategy    *tasking.Strategy
	SGSStrategy *tasking.Strategy
	// DLB toggles dynamic load balancing on measured runs.
	DLB *bool
	// MeshGenerations overrides the bronchial-generation depth of the
	// airway mesh behind measured runs.
	MeshGenerations int
	// Particles overrides the injected particle count.
	Particles int
	// Steps overrides the number of time steps.
	Steps int
	// Workers overrides the worker threads per rank.
	Workers int
	// Platforms restricts modeled figures to a subset of the paper's
	// machines ("MareNostrum4", "Thunder"); empty means all.
	Platforms []string
	// Width and Rows size timeline renderings (0 = scenario default).
	Width, Rows int
	// Seed overrides the injection seed (0 = scenario default).
	Seed int64
	// Inflow overrides the inlet waveform of measured runs (nil =
	// scenario default, normally steady inhalation).
	Inflow navierstokes.Waveform
	// SweepDiameters, SweepFlows and SweepGens override the axes of
	// sweep-family scenarios: particle diameters (meters), inlet face
	// speeds (m/s), and airway mesh generations. Empty = the scenario's
	// default axis; axes are set-like (order and duplicates do not
	// matter — see SweepAxes).
	SweepDiameters []float64
	SweepFlows     []float64
	SweepGens      []int
}

// Option mutates Params; the With* constructors below are the public
// vocabulary for configuring scenarios.
type Option func(*Params)

// NewParams applies opts to a zero Params.
func NewParams(opts ...Option) Params {
	var p Params
	for _, o := range opts {
		o(&p)
	}
	return p
}

// WithRanks sets the fluid/world rank count.
func WithRanks(n int) Option { return func(p *Params) { p.Ranks = n } }

// WithParticleRanks sets the particle-code rank count for coupled mode.
func WithParticleRanks(n int) Option { return func(p *Params) { p.ParticleRanks = n } }

// WithMode selects synchronous or coupled execution.
func WithMode(m coupling.Mode) Option { return func(p *Params) { p.Mode = &m } }

// WithStrategy selects the matrix-assembly tasking strategy.
func WithStrategy(s tasking.Strategy) Option { return func(p *Params) { p.Strategy = &s } }

// WithSGSStrategy selects the SGS-phase tasking strategy.
func WithSGSStrategy(s tasking.Strategy) Option { return func(p *Params) { p.SGSStrategy = &s } }

// WithDLB toggles dynamic load balancing.
func WithDLB(on bool) Option { return func(p *Params) { p.DLB = &on } }

// WithMesh sets the airway-mesh generation depth.
func WithMesh(generations int) Option { return func(p *Params) { p.MeshGenerations = generations } }

// WithParticles sets the injected particle count.
func WithParticles(n int) Option { return func(p *Params) { p.Particles = n } }

// WithSteps sets the time-step count.
func WithSteps(n int) Option { return func(p *Params) { p.Steps = n } }

// WithWorkers sets the worker threads per rank.
func WithWorkers(n int) Option { return func(p *Params) { p.Workers = n } }

// WithPlatforms restricts modeled figures to the named machines.
func WithPlatforms(names ...string) Option { return func(p *Params) { p.Platforms = names } }

// WithTimeline sizes trace renderings (width columns, at most rows rows).
func WithTimeline(width, rows int) Option { return func(p *Params) { p.Width = width; p.Rows = rows } }

// WithSeed sets the injection seed.
func WithSeed(s int64) Option { return func(p *Params) { p.Seed = s } }

// WithInflow sets the inlet waveform of measured runs.
func WithInflow(w navierstokes.Waveform) Option { return func(p *Params) { p.Inflow = w } }

// WithSweepDiameters sets the particle-diameter sweep axis (meters).
func WithSweepDiameters(d ...float64) Option { return func(p *Params) { p.SweepDiameters = d } }

// WithSweepFlows sets the inlet-speed sweep axis (m/s).
func WithSweepFlows(q ...float64) Option { return func(p *Params) { p.SweepFlows = q } }

// WithSweepGens sets the mesh-generation sweep axis.
func WithSweepGens(g ...int) Option { return func(p *Params) { p.SweepGens = g } }

// ApplyRun overlays the set overrides onto a run configuration. It is
// the one place the mutate-the-struct-fields pattern survives, shared by
// every measured scenario.
func (p Params) ApplyRun(rc *coupling.RunConfig) {
	if p.Ranks > 0 {
		rc.FluidRanks = p.Ranks
	}
	if p.ParticleRanks > 0 {
		rc.ParticleRanks = p.ParticleRanks
	}
	if p.Mode != nil {
		rc.Mode = *p.Mode
	}
	if p.Strategy != nil {
		rc.NS.Strategy = *p.Strategy
	}
	if p.SGSStrategy != nil {
		rc.NS.SGSStrategy = *p.SGSStrategy
	}
	if p.DLB != nil {
		rc.UseDLB = *p.DLB
	}
	if p.Particles > 0 {
		rc.NumParticles = p.Particles
	}
	if p.Steps > 0 {
		rc.Steps = p.Steps
	}
	if p.Workers > 0 {
		rc.WorkersPerRank = p.Workers
	}
	if p.Seed != 0 {
		rc.Seed = p.Seed
	}
	if p.Inflow != nil {
		rc.NS.Inflow = p.Inflow
	}
}

// ApplyMesh overlays the set overrides onto a mesh configuration.
func (p Params) ApplyMesh(mc *mesh.AirwayConfig) {
	if p.MeshGenerations > 0 {
		mc.Generations = p.MeshGenerations
	}
}

// PlatformSelected reports whether a modeled figure restricted by
// Platforms should include the named machine.
func (p Params) PlatformSelected(name string) bool {
	if len(p.Platforms) == 0 {
		return true
	}
	for _, n := range p.Platforms {
		if n == name {
			return true
		}
	}
	return false
}

// funcScenario adapts a function to the Scenario interface.
type funcScenario struct {
	name     string
	describe string
	tags     []string
	run      func(ctx context.Context, p Params) (*Artifact, error)
}

// New wraps a run function into a Scenario.
func New(name, describe string, tags []string, run func(ctx context.Context, p Params) (*Artifact, error)) Scenario {
	return &funcScenario{name: name, describe: describe, tags: tags, run: run}
}

func (s *funcScenario) Name() string     { return s.name }
func (s *funcScenario) Describe() string { return s.describe }
func (s *funcScenario) Tags() []string   { return append([]string(nil), s.tags...) }
func (s *funcScenario) Run(ctx context.Context, p Params) (*Artifact, error) {
	return s.run(ctx, p)
}
