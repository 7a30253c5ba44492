// Command respira is the reproduction's one command-line front end.
// Its first argument names a subcommand:
//
//	respira run -ranks 8 -steps 5 -particles 2000   # one simulation
//	respira run -mode coupled -particle-ranks 2 -dlb
//	respira run -steps 40 -checkpoint /tmp/run.ckpt -checkpoint-every 10
//	respira fig -exp fig6,fig8 -format json         # paper tables and figures
//	respira fig -exp sweep -sweep-d 2.5e-6,10e-6 -sweep-q 0.9,1.5
//	respira serve -addr :8080 -checkpoint /var/lib/respira/ckpt
//	respira trace -store /var/lib/respira/telemetry -list
//	respira verify /var/lib/respira/ckpt            # offline integrity scrub
//
// `respira SUBCOMMAND -h` lists a subcommand's flags. A scenario
// override flag (-ranks, -steps, -gens, -width, -sweep-d, ...) is
// spelled the same in every subcommand and is validated like the
// matching POST /jobs option. Every subcommand exits 0 on success or
// -h, 2 on a command line it cannot run (an unknown flag, a stray
// argument, a bad value) before doing any work, and 1 on a failure
// once running.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/scenario"
)

// commands are the subcommands, in the order -h lists them.
var commands = []struct {
	name, about string
	run         func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}{
	{"run", "one simulation: airway mesh, Navier-Stokes, particle transport (default: 4 sync ranks, 3 steps, 1000 particles)", runCmd},
	{"fig", "regenerate the paper's tables and figures from the scenario registry (default: -exp all)", figCmd},
	{"serve", "serve the scenario registry as an HTTP job service", serveCmd},
	{"trace", "render Paraver-style timelines of stored, served or fresh runs", traceCmd},
	{"verify", "scrub every checkpoint and telemetry chunk under DIR offline", verifyCmd},
}

func main() {
	// The first SIGINT or SIGTERM cancels the context (a run stops at its
	// next step boundary, serve drains); a second one kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() { <-ctx.Done(); stop() }()
	err := respira(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(exitCode(err))
}

// respira runs the subcommand args[0] names on the rest of args.
func respira(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				if err := c.run(ctx, args[1:], stdout, stderr); err != nil {
					return fmt.Errorf("respira %s: %w", c.name, err)
				}
				return nil
			}
		}
	}
	fmt.Fprintln(stderr, "usage: respira SUBCOMMAND [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-7s %s\n", c.name, c.about)
	}
	switch {
	case len(args) == 0:
		return usagef("respira: missing subcommand")
	case args[0] == "-h" || args[0] == "-help" || args[0] == "--help":
		return flag.ErrHelp
	}
	return usagef("respira: unknown subcommand %q", args[0])
}

// usageError is a command line a subcommand cannot run.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// exitCode is every subcommand's exit status for the error it returned.
func exitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)) || errors.Is(err, scenario.ErrBadParams):
		return 2
	}
	return 1
}

// parse parses args into fs, which must leave exactly the named
// operands. Flag errors are returned, not printed; -h prints the flags.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer, operands ...string) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	fs.SetOutput(stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprintln(stderr, strings.Join(append([]string{"usage:", fs.Name(), "[flags]"}, operands...), " "))
		fs.PrintDefaults()
		return err
	case err != nil:
		return usageError{err}
	case fs.NArg() != len(operands):
		return usagef("want operands %q, got %q", operands, fs.Args())
	}
	return nil
}

// overrides gives every scenario.ParamsSpec key its one flag name and
// usage string. A subcommand binds the keys it accepts, so a key is
// spelled the same in every subcommand; none binds seed yet.
var overrides = map[string]struct{ name, usage string }{
	"mode":            {"mode", "execution mode: sync or coupled"},
	"ranks":           {"ranks", "MPI ranks (fluid ranks in coupled mode)"},
	"particleRanks":   {"particle-ranks", "particle ranks in coupled mode"},
	"strategy":        {"strategy", "assembly strategy: serial, atomics, coloring or multidep"},
	"dlb":             {"dlb", "enable dynamic load balancing"},
	"meshGenerations": {"gens", "bronchial generations of the airway mesh"},
	"particles":       {"particles", "particles injected at step 0"},
	"steps":           {"steps", "time steps"},
	"workers":         {"threads", "OpenMP-like threads per rank"},
	"platforms":       {"platform", "restrict per-platform figures to one platform (MareNostrum4 or Thunder)"},
	"width":           {"width", "timeline width in chars"},
	"rows":            {"rows", "timeline max rank rows"},
	"seed":            {"seed", "particle injection seed"},
	"inflow":          {"inflow", "inlet waveform: steady, breathing:<period>, or table:<t>=<s>,..."},
	"sweepDiameters":  {"sweep-d", "sweep axis: comma-separated particle diameters in meters"},
	"sweepFlows":      {"sweep-q", "sweep axis: comma-separated inlet face speeds in m/s"},
	"sweepGens":       {"sweep-g", "sweep axis: comma-separated airway mesh generations"},
}

// bindOverrides binds the override flags of keys into fs. An unset flag
// leaves its field nil: the subcommand's or scenario's default.
func bindOverrides(fs *flag.FlagSet, keys ...string) *scenario.ParamsSpec {
	spec := new(scenario.ParamsSpec)
	for _, key := range keys {
		o := overrides[key]
		fs.Var(spec.Flag(key), o.name, o.usage)
	}
	return spec
}

// persistence holds the checkpoint and watchdog flags run and serve share.
type persistence struct {
	every, keep int
	watchdog    time.Duration
}

func bindPersistence(fs *flag.FlagSet) *persistence {
	p := new(persistence)
	fs.IntVar(&p.every, "checkpoint-every", checkpoint.DefaultEvery, "checkpoint capture period in simulation steps (with -checkpoint)")
	fs.IntVar(&p.keep, "checkpoint-keep", checkpoint.DefaultKeep, "snapshot generations retained per run; resume falls back past corrupt ones (with -checkpoint)")
	fs.DurationVar(&p.watchdog, "watchdog", 0, "bound on a blocking exchange whose message is lost; a rank error needs none, it aborts the run at once (0 = off)")
	return p
}

func (p *persistence) check() error {
	return firstErr(
		scenario.CheckPositive("checkpoint-every", p.every),
		scenario.CheckPositive("checkpoint-keep", p.keep),
		nonNegative("watchdog", p.watchdog),
	)
}

func nonNegative(name string, d time.Duration) error {
	if d < 0 {
		return usagef("%s must be nonnegative, got %v", name, d)
	}
	return nil
}

// firstErr returns the first non-nil error, so validation always
// reports the same flag first.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
