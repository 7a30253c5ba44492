// Command benchfig serves the scenario registry: every table and figure
// of the paper's evaluation plus the example workloads, selected by
// name or tag, rendered as text, JSON, or CSV, optionally in parallel.
//
// Usage:
//
//	benchfig -list                     # enumerate registered scenarios
//	benchfig                           # the paper evaluation suite (-exp all)
//	benchfig -exp table1               # one scenario
//	benchfig -exp fig6,fig7 -platform Thunder
//	benchfig -tags example             # the example workloads
//	benchfig -exp fig8 -format json    # typed artifact as JSON
//	benchfig -exp all -format csv      # flat CSV over every artifact
//	benchfig -exp fig6,fig8 -parallel 2 -progress
//
// Unknown -exp names fail with the list of registered scenarios. `-exp
// all` expands to the scenarios tagged "paper" (the pre-registry
// benchfig suite, in registration order); a Ctrl-C cancels in-flight
// simulations at their next step boundary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	_ "repro" // populate the default scenario registry
	"repro/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		if errors.Is(err, scenario.ErrBadParams) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole CLI, separated from main for testing.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec scenario.ParamsSpec
	var (
		list     = fs.Bool("list", false, "list registered scenarios and exit")
		exp      = fs.String("exp", "all", "comma-separated scenario names, or 'all' for the paper suite")
		tags     = fs.String("tags", "", "select scenarios by comma-separated tags instead of -exp")
		format   = fs.String("format", "text", "output format: text, json, or csv")
		parallel = fs.Int("parallel", 1, "number of scenarios to run concurrently")
		progress = fs.Bool("progress", false, "report per-scenario progress on stderr")
	)
	// Overrides bind to the POST /jobs option fields: an unset flag keeps
	// each scenario's own default (quickstart renders 90x8, fig2 100x24).
	fs.Var(spec.Flag("platforms"), "platform", "restrict per-platform figures to one platform (MareNostrum4 or Thunder)")
	fs.Var(spec.Flag("width"), "width", "timeline width (trace scenarios)")
	fs.Var(spec.Flag("rows"), "rows", "timeline max rows (trace scenarios)")
	fs.Var(spec.Flag("inflow"), "inflow", "inlet waveform for measured scenarios: steady, breathing:<period>, or table:<t>=<s>,...")
	fs.Var(spec.Flag("sweepDiameters"), "sweep-d", "comma-separated particle diameters in meters (sweep scenarios)")
	fs.Var(spec.Flag("sweepFlows"), "sweep-q", "comma-separated inlet face speeds in m/s (sweep scenarios)")
	fs.Var(spec.Flag("sweepGens"), "sweep-g", "comma-separated airway mesh generations (sweep scenarios)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (scenarios are selected with -exp)", fs.Args())
	}
	switch *format {
	case "text", "json", "csv":
	default:
		// Validated before any scenario runs: a typo must not discard a
		// minutes-long suite.
		return fmt.Errorf("unknown format %q (want text, json, or csv)", *format)
	}
	params, err := spec.Params()
	if err != nil {
		return err
	}
	reg := scenario.Default

	if *list {
		fmt.Fprintf(stdout, "%-12s %-28s %s\n", "NAME", "TAGS", "DESCRIPTION")
		for _, s := range reg.Scenarios() {
			fmt.Fprintf(stdout, "%-12s %-28s %s\n", s.Name(), strings.Join(s.Tags(), ","), s.Describe())
		}
		return nil
	}

	scs, err := selectScenarios(reg, *exp, *tags)
	if err != nil {
		return err
	}

	runner := scenario.Runner{Parallel: *parallel}
	if *progress {
		runner.Progress = func(ev scenario.Event) {
			if !ev.Done {
				fmt.Fprintf(stderr, "[%d/%d] %s ...\n", ev.Index+1, ev.Total, ev.Scenario)
			} else if ev.Err != nil {
				fmt.Fprintf(stderr, "[%d/%d] %s FAILED after %v: %v\n", ev.Index+1, ev.Total, ev.Scenario, ev.Elapsed.Round(1e6), ev.Err)
			} else {
				fmt.Fprintf(stderr, "[%d/%d] %s done in %v\n", ev.Index+1, ev.Total, ev.Scenario, ev.Elapsed.Round(1e6))
			}
		}
	}

	results, ctxErr := runner.Run(ctx, scs, params)
	var arts []*scenario.Artifact
	var firstErr error
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintln(stderr, "benchfig:", res.Err)
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		arts = append(arts, res.Artifact)
	}

	switch *format {
	case "text":
		for _, a := range arts {
			fmt.Fprintln(stdout, a.Text())
		}
	case "json":
		out, err := json.MarshalIndent(arts, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
	case "csv":
		out, err := scenario.WriteCSV(arts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d scenarios failed (first: %w)", len(results)-len(arts), len(results), firstErr)
	}
	return ctxErr
}

// selectScenarios resolves the -exp / -tags selection against the
// registry. Tag selection wins when given; "all" is the paper suite.
func selectScenarios(reg *scenario.Registry, exp, tags string) ([]scenario.Scenario, error) {
	if tags != "" {
		seen := map[string]bool{}
		var out []scenario.Scenario
		for _, tag := range strings.Split(tags, ",") {
			tag = strings.TrimSpace(tag)
			for _, s := range reg.WithTag(tag) {
				if !seen[s.Name()] {
					seen[s.Name()] = true
					out = append(out, s)
				}
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no scenario carries tags %q; known tags: %s",
				tags, strings.Join(reg.Tags(), ", "))
		}
		return out, nil
	}
	if exp == "all" {
		return reg.WithTag("paper"), nil
	}
	var names []string
	for _, n := range strings.Split(exp, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty -exp selection")
	}
	return reg.Select(names)
}
