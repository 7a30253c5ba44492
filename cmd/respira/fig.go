package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	_ "repro" // populate the default scenario registry
	"repro/scenario"
)

// figCmd is `respira fig`: every table and figure of the paper's
// evaluation plus the example workloads and sweeps, selected from the
// scenario registry by name or tag, rendered as text, JSON or CSV,
// optionally in parallel. `-exp all` is the scenarios tagged "paper" in
// registration order; unknown names fail with the registry listing.
func figCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("respira fig", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list registered scenarios and exit")
		exp      = fs.String("exp", "all", "comma-separated scenario names, or 'all' for the paper suite")
		tags     = fs.String("tags", "", "select scenarios by comma-separated tags instead of -exp")
		format   = fs.String("format", "text", "output format: text, json, or csv")
		parallel = fs.Int("parallel", 1, "number of scenarios to run concurrently")
		progress = fs.Bool("progress", false, "report per-scenario progress on stderr")
	)
	// An unset override keeps each scenario's own default (quickstart
	// renders 90x8, fig2 100x24).
	spec := bindOverrides(fs, "platforms", "width", "rows", "inflow", "sweepDiameters", "sweepFlows", "sweepGens")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	switch *format {
	case "text", "json", "csv":
	default:
		// Validated before any scenario runs: a typo must not discard a
		// minutes-long suite.
		return usagef("unknown format %q (want text, json, or csv)", *format)
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
	runner := &scenario.Runner{Parallel: *parallel}
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
	return runScenarios(ctx, runner, scs, params, *format, stdout, stderr)
}

// runScenarios runs scs with params and writes the artifacts of those
// that succeeded in format, in selection order. Each failure is noted on
// stderr; the first one is returned.
func runScenarios(ctx context.Context, runner *scenario.Runner, scs []scenario.Scenario, params scenario.Params, format string, stdout, stderr io.Writer) error {
	results, ctxErr := runner.Run(ctx, scs, params)
	var arts []*scenario.Artifact
	var first error
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintln(stderr, "respira:", res.Err)
			if first == nil {
				first = res.Err
			}
			continue
		}
		arts = append(arts, res.Artifact)
	}

	switch format {
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
	if first != nil {
		return fmt.Errorf("%d of %d scenarios failed (first: %w)", len(results)-len(arts), len(results), first)
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
