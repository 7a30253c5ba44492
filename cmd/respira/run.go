package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/coupling"
	"repro/internal/integrity"
	"repro/internal/tasking"
	"repro/scenario"
)

// runCmd is `respira run`: one laptop-scale CFPD simulation (airway
// mesh, distributed Navier-Stokes, Lagrangian particle transport) with
// a choice of execution mode, assembly strategy and DLB, as the paper's
// Alya runs are configured. Unset overrides keep a synchronous 4-rank
// run of 3 steps injecting 1000 particles; -mode coupled splits 3 fluid
// ranks and 1 particle rank.
func runCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("respira run", flag.ContinueOnError)
	spec := bindOverrides(fs, "mode", "ranks", "particleRanks", "steps", "particles",
		"strategy", "workers", "meshGenerations", "dlb", "inflow")
	var (
		ranksPerNode = fs.Int("ranks-per-node", 0, "ranks per node (0 = 48, one MareNostrum4 node; larger runs span several nodes)")
		showTrace    = fs.Bool("trace", false, "print the phase timeline")
		injectEvery  = fs.Int("inject-every", 0, "re-release particles every k steps (0 = single step-0 bolus)")
		ckptPath     = fs.String("checkpoint", "", "checkpoint the run into this file and resume from it when present")
	)
	persist := bindPersistence(fs)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	p, err := spec.Params()
	if err != nil {
		return err
	}
	coupled := p.Mode != nil && *p.Mode == coupling.Coupled
	if spec.ParticleRanks != nil {
		// Stricter than the job option, where 0 keeps the default split.
		if !coupled {
			return usagef("-particle-ranks needs -mode coupled")
		}
		if err := scenario.CheckPositive("particle-ranks", *spec.ParticleRanks); err != nil {
			return err
		}
	}
	if err := firstErr(
		scenario.CheckNonNegative("ranks-per-node", *ranksPerNode),
		scenario.CheckNonNegative("inject-every", *injectEvery),
		persist.check(),
	); err != nil {
		return err
	}

	cfg := repro.DefaultSimulationConfig()
	cfg.Mesh.Generations = 2
	rc := &cfg.Run
	rc.Mode, rc.FluidRanks, rc.ParticleRanks = coupling.Synchronous, 4, 0
	if coupled {
		rc.FluidRanks, rc.ParticleRanks = 3, 1
	}
	rc.Steps, rc.NumParticles, rc.WorkersPerRank = 3, 1000, 1
	rc.NS.Strategy = tasking.StrategyMultidep
	p.ApplyRun(rc)
	p.ApplyMesh(&cfg.Mesh)
	if *ranksPerNode > 0 {
		rc.RanksPerNode = *ranksPerNode
	}
	rc.InjectEvery = *injectEvery
	rc.Watchdog = persist.watchdog
	if *ckptPath != "" {
		rc.Checkpoint = &checkpoint.Plan{
			Path: *ckptPath, Every: persist.every, Resume: true, Keep: persist.keep,
			OnError: func(err error) { fmt.Fprintln(stderr, "respira run: checkpoint:", err) },
		}
	}

	res, err := repro.RunSimulationContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Summary())
	if *showTrace {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Result.Trace.Render(100, 24))
	}
	return nil
}

// verifyCmd is `respira verify DIR`: per-file verdicts on stdout, and
// an error when anything is corrupt or quarantined (the same criterion
// as the job service's GET /admin/integrity ok field).
func verifyCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("respira verify", flag.ContinueOnError)
	if err := parse(fs, args, stderr, "DIR"); err != nil {
		return err
	}
	dir := fs.Arg(0)
	vs, err := integrity.ScanDir(dir)
	if err != nil {
		return err
	}
	if len(vs) == 0 {
		fmt.Fprintf(stdout, "%s: no checkpoints or telemetry runs found\n", dir)
		return nil
	}
	for _, v := range vs {
		line := fmt.Sprintf("%-11s %-10s %s", v.Status, v.Kind, v.File)
		if v.Detail != "" {
			line += "  (" + v.Detail + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	if integrity.AnyBad(vs) {
		return errors.New("corrupt or quarantined files under " + dir)
	}
	return nil
}
