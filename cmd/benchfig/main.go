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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	_ "repro" // populate the default scenario registry
	"repro/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

// run is the whole CLI, separated from main for testing.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list registered scenarios and exit")
		exp      = fs.String("exp", "all", "comma-separated scenario names, or 'all' for the paper suite")
		tags     = fs.String("tags", "", "select scenarios by comma-separated tags instead of -exp")
		format   = fs.String("format", "text", "output format: text, json, or csv")
		parallel = fs.Int("parallel", 1, "number of scenarios to run concurrently")
		progress = fs.Bool("progress", false, "report per-scenario progress on stderr")
		platform = fs.String("platform", "", "restrict per-platform figures to one platform (MareNostrum4 or Thunder)")
		width    = fs.Int("width", 100, "timeline width (trace scenarios)")
		rows     = fs.Int("rows", 24, "timeline max rows (trace scenarios)")
		inflow   = fs.String("inflow", "", "inlet waveform for measured scenarios: steady, breathing:<period>, or table:<t>=<s>,...")
		sweepD   = fs.String("sweep-d", "", "comma-separated particle diameters in meters (sweep scenarios)")
		sweepQ   = fs.String("sweep-q", "", "comma-separated inlet face speeds in m/s (sweep scenarios)")
		sweepG   = fs.String("sweep-g", "", "comma-separated airway mesh generations (sweep scenarios)")
	)
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

	// Flag defaults must not override a scenario's own timeline defaults
	// (quickstart renders 90x8; fig2 100x24): only pass explicitly set
	// flags through.
	var params scenario.Params
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "width":
			params.Width = *width
		case "rows":
			params.Rows = *rows
		}
	})
	if *platform != "" {
		params.Platforms = []string{*platform}
	}
	if *inflow != "" {
		w, err := scenario.ParseWaveform(*inflow)
		if err != nil {
			return err
		}
		params.Inflow = w
	}
	if *sweepD != "" {
		ds, err := parseFloatList("sweep-d", *sweepD)
		if err != nil {
			return err
		}
		params.SweepDiameters = ds
	}
	if *sweepQ != "" {
		qs, err := parseFloatList("sweep-q", *sweepQ)
		if err != nil {
			return err
		}
		params.SweepFlows = qs
	}
	if *sweepG != "" {
		gs, err := parseIntList("sweep-g", *sweepG)
		if err != nil {
			return err
		}
		params.SweepGens = gs
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

// parseFloatList parses a comma-separated list of positive floats for a
// sweep-axis flag.
func parseFloatList(name, s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || !(v > 0) {
			return nil, fmt.Errorf("-%s: want positive numbers, got %q", name, f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list", name)
	}
	return out, nil
}

// parseIntList parses a comma-separated list of positive ints for a
// sweep-axis flag.
func parseIntList(name, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-%s: want positive integers, got %q", name, f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list", name)
	}
	return out, nil
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
