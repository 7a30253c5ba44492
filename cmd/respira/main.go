// Command respira runs a real (laptop-scale) CFPD respiratory simulation:
// airway mesh generation, distributed Navier-Stokes, Lagrangian particle
// transport — with a choice of execution mode, assembly strategy and DLB,
// mirroring how the paper's Alya runs are configured.
//
// Examples:
//
//	respira -ranks 8 -steps 5 -particles 2000
//	respira -mode coupled -fluid 6 -parts 2 -dlb
//	respira -strategy coloring -threads 2 -gens 3 -trace
//	respira -inflow breathing:0.0008 -inject-every 1 -steps 4
//	respira -sweep -sweep-d 2.5e-6,10e-6 -sweep-q 0.9,1.5
//	respira -steps 40 -checkpoint /tmp/run.ckpt -checkpoint-every 10
//	respira -verify /var/lib/respirad/ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/coupling"
	"repro/internal/integrity"
	"repro/internal/tasking"
	"repro/scenario"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, separated from main for testing. It returns the
// exit status: 2 for a bad flag, 1 for a failed run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("respira", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The simulation overrides bind to the POST /jobs option fields and
	// so share its validation; unset ones take the defaults below.
	var spec scenario.ParamsSpec
	fs.Var(spec.Flag("mode"), "mode", "execution mode: sync or coupled (default sync)")
	fs.Var(spec.Flag("ranks"), "ranks", "MPI ranks, sync mode (default 4)")
	fs.Var(spec.Flag("steps"), "steps", "time steps (default 3)")
	fs.Var(spec.Flag("particles"), "particles", "particles injected at step 0 (default 1000)")
	fs.Var(spec.Flag("strategy"), "strategy", "assembly strategy: serial, atomics, coloring, multidep (default multidep)")
	fs.Var(spec.Flag("workers"), "threads", "OpenMP-like threads per rank (default 1)")
	fs.Var(spec.Flag("meshGenerations"), "gens", "bronchial generations of the airway mesh (default 2)")
	fs.Var(spec.Flag("dlb"), "dlb", "enable dynamic load balancing")
	fs.Var(spec.Flag("inflow"), "inflow", "inlet waveform: steady, breathing:<period>, or table:<t>=<s>,... (default constant inflow)")
	fs.Var(spec.Flag("sweepDiameters"), "sweep-d", "sweep axis: comma-separated particle diameters in meters (implies -sweep)")
	fs.Var(spec.Flag("sweepFlows"), "sweep-q", "sweep axis: comma-separated inlet face speeds in m/s (implies -sweep)")
	fs.Var(spec.Flag("sweepGens"), "sweep-g", "sweep axis: comma-separated mesh generations (implies -sweep)")
	var (
		fluid        = fs.Int("fluid", 3, "fluid ranks (coupled mode)")
		parts        = fs.Int("parts", 1, "particle ranks (coupled mode)")
		ranksPerNode = fs.Int("ranks-per-node", 0, "ranks per node (0 = 48, one MareNostrum4 node; larger runs span several nodes)")
		showTrace    = fs.Bool("trace", false, "print the phase timeline")
		injectEvery  = fs.Int("inject-every", 0, "re-release particles every k steps (0 = single step-0 bolus)")
		sweep        = fs.Bool("sweep", false, "run a dosage sweep (one simulation per grid point) instead of a single run")
		ckptPath     = fs.String("checkpoint", "", "checkpoint the run into this file and resume from it when present (single-run mode)")
		ckptEvery    = fs.Int("checkpoint-every", 10, "checkpoint capture period in steps (with -checkpoint)")
		ckptKeep     = fs.Int("checkpoint-keep", 2, "snapshot generations retained per run; resume falls back past corrupt ones (with -checkpoint)")
		verify       = fs.String("verify", "", "offline integrity scrub: verify every checkpoint and telemetry chunk under this directory, print per-file verdicts, and exit (1 if anything is corrupt or quarantined)")
		watchdog     = fs.Duration("watchdog", 0, "bound on a blocking exchange whose message is lost; a rank error needs none, it aborts the run at once (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *verify != "" {
		return runVerify(*verify, stdout, stderr)
	}

	// Validate every flag before any simulation work: nonsensical counts
	// (-steps -1, -gens 0, ...) exit 2 with a usage message, the same
	// rules the respirad service applies to POST /jobs options (400).
	usage := func(err error) int {
		fmt.Fprintln(stderr, "respira:", err)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	p, err := spec.Params()
	if err != nil {
		return usage(err)
	}
	for _, c := range []struct {
		name string
		v    int
		fn   func(string, int) error
	}{
		{"fluid", *fluid, scenario.CheckPositive},
		{"parts", *parts, scenario.CheckPositive},
		{"ranks-per-node", *ranksPerNode, scenario.CheckNonNegative},
		{"inject-every", *injectEvery, scenario.CheckNonNegative},
		{"checkpoint-every", *ckptEvery, scenario.CheckPositive},
		{"checkpoint-keep", *ckptKeep, scenario.CheckPositive},
	} {
		if err := c.fn(c.name, c.v); err != nil {
			return usage(err)
		}
	}
	if *watchdog < 0 {
		return usage(fmt.Errorf("watchdog must be nonnegative, got %v", *watchdog))
	}

	if *sweep || len(p.SweepDiameters)+len(p.SweepFlows)+len(p.SweepGens) > 0 {
		// Sweep mode runs the registered "sweep" scenario: a grid of
		// full simulations with per-point mesh/partition arena reuse.
		// Only explicitly set flags override the sweep's per-point
		// defaults (2 ranks, 2 steps, 400 particles per point).
		sp := scenario.Params{
			Ranks: p.Ranks, Steps: p.Steps, Particles: p.Particles, Workers: p.Workers, Inflow: p.Inflow,
			SweepDiameters: p.SweepDiameters, SweepFlows: p.SweepFlows, SweepGens: p.SweepGens,
		}
		if err := runDosageSweep(ctx, sp, stdout); err != nil {
			fmt.Fprintln(stderr, "respira:", err)
			return 1
		}
		return 0
	}

	cfg := repro.DefaultSimulationConfig()
	cfg.Mesh.Generations = 2
	rc := &cfg.Run
	rc.Mode, rc.FluidRanks, rc.ParticleRanks = coupling.Synchronous, 4, 0
	rc.Steps, rc.NumParticles, rc.WorkersPerRank = 3, 1000, 1
	rc.NS.Strategy = tasking.StrategyMultidep
	p.ApplyRun(rc)
	p.ApplyMesh(&cfg.Mesh)
	if rc.Mode == coupling.Coupled {
		rc.FluidRanks, rc.ParticleRanks = *fluid, *parts
	}
	if *ranksPerNode > 0 {
		rc.RanksPerNode = *ranksPerNode
	}
	rc.InjectEvery = *injectEvery
	rc.Watchdog = *watchdog
	if *ckptPath != "" {
		rc.Checkpoint = &checkpoint.Plan{
			Path: *ckptPath, Every: *ckptEvery, Resume: true, Keep: *ckptKeep,
			OnError: func(err error) { fmt.Fprintln(stderr, "respira: checkpoint:", err) },
		}
	}

	res, err := repro.RunSimulationContext(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "respira:", err)
		return 1
	}
	fmt.Fprint(stdout, res.Summary())
	if *showTrace {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Result.Trace.Render(100, 24))
	}
	return 0
}

// runVerify is the -verify DIR offline scrub: per-file verdicts on
// stdout, exit 1 when anything is corrupt or quarantined (the same
// criterion as respirad's GET /admin/integrity ok field).
func runVerify(dir string, stdout, stderr io.Writer) int {
	vs, err := integrity.ScanDir(dir)
	if err != nil {
		fmt.Fprintln(stderr, "respira: verify:", err)
		return 1
	}
	if len(vs) == 0 {
		fmt.Fprintf(stdout, "%s: no checkpoints or telemetry runs found\n", dir)
		return 0
	}
	for _, v := range vs {
		line := fmt.Sprintf("%-11s %-10s %s", v.Status, v.Kind, v.File)
		if v.Detail != "" {
			line += "  (" + v.Detail + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	if integrity.AnyBad(vs) {
		return 1
	}
	return 0
}

// runDosageSweep executes the registered "sweep" scenario with p and
// prints its table.
func runDosageSweep(ctx context.Context, p scenario.Params, stdout io.Writer) error {
	scs, err := scenario.Default.Select([]string{repro.ScenarioSweep})
	if err != nil {
		return err
	}
	r := &scenario.Runner{}
	results, err := r.Run(ctx, scs, p)
	if err != nil {
		return err
	}
	if results[0].Err != nil {
		return results[0].Err
	}
	fmt.Fprintln(stdout, results[0].Artifact.Text())
	return nil
}
