// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and a traced run that
// attributes the time to each internal package. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is its JSON result
//	benchmark [-reps R] [-seed N] [-seconds S] [-quick]       every workload R times plus one traced run each; writes out/result.json
//	benchmark compare OLD.json NEW.json                       regression verdict per (workload, end-to-end metric)
//	benchmark manifest                                        print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "manifest":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(buildManifest()); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			return 0
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	child := fs.String("child", "", "internal: run one leg described by this JSON spec")
	workloadName := fs.String("workload", "", "run this one workload and print its result as the last line (default: all workloads, result file)")
	seed := fs.Int64("seed", 1, "workload seed: particle seeds and job seeds derive from it")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "with -workload: 1 runs the traced per-layer run instead of the end-to-end run")
	quick := fs.Bool("quick", false, "tiny sizing (3 steps, 200 particles, 4 jobs) for the tests")
	reps := fs.Int("reps", 3, "without -workload: end-to-end runs per workload")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for traces, the result file and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child)
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected argument", fs.Arg(0))
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	p := &parent{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
	if *quick {
		p.seconds = 0
	}
	if *workloadName == "" {
		return p.runAll(*reps)
	}
	w := findWorkload(*workloadName)
	if w == nil {
		fmt.Fprintln(os.Stderr, "benchmark: unknown workload", *workloadName)
		return 2
	}
	return p.runOne(w, *traceFlag != 0)
}
