package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse new is than old as a share of old,
// positive when worse, whatever direction the metric improves in.
func worsening(better string, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if better == higher {
		return (old - new) / old
	}
	return (new - old) / old
}

// judge applies the benchmark's rule: a pair whose run-to-run spread (the
// wider of the two sides' interquartile ranges over their medians)
// exceeds the bound cannot be resolved; otherwise it is worse beyond the
// bound, better beyond the spread, or the same.
func judge(old, new metricSummary) string {
	spread := max(old.spread(), new.spread())
	w := worsening(new.Better, old.Median, new.Median)
	switch {
	case spread > new.Bound:
		return verdictUnresolved
	case w > new.Bound:
		return verdictWorse
	case -w > spread:
		return verdictBetter
	}
	return verdictSame
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// compareMain prints one row per (workload, end-to-end metric) and exits
// non-zero on any "worse" verdict or any higher error ratio.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare OLD.json NEW.json")
		return 2
	}
	oldF, err := loadResult(args[0])
	if err == nil {
		var newF *resultFile
		if newF, err = loadResult(args[1]); err == nil {
			return compareResults(oldF, newF)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func compareResults(oldF, newF *resultFile) int {
	oldByName := map[string]workloadResult{}
	for _, w := range oldF.Workloads {
		oldByName[w.Name] = w
	}
	failed := false
	fmt.Printf("%-24s %-20s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, nw := range newF.Workloads {
		ow, ok := oldByName[nw.Name]
		if !ok {
			fmt.Printf("%-24s (not in the old file)\n", nw.Name)
			continue
		}
		for _, d := range endToEndMetrics {
			name := d.Name
			n, inNew := nw.EndToEnd[name]
			o, inOld := ow.EndToEnd[name]
			if !inNew || !inOld {
				continue
			}
			verdict := judge(o, n)
			failed = failed || verdict == verdictWorse
			fmt.Printf("%-24s %-20s %12.6g %12.6g %+7.1f%% %6.1f%% %6.0f%%  %s   old q1..q3 %.6g..%.6g n=%d, new %.6g..%.6g n=%d\n",
				nw.Name, name, o.Median, n.Median, change(o.Median, n.Median),
				max(o.spread(), n.spread())*100, n.Bound*100, verdict, o.Q1, o.Q3, o.N, n.Q1, n.Q3, n.N)
		}
		if nw.ErrorRatio > ow.ErrorRatio {
			failed = true
			fmt.Printf("%-24s %-20s %12.6g %12.6g  %s\n", nw.Name, "error_ratio", ow.ErrorRatio, nw.ErrorRatio, verdictWorse)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// change is the metric's own signed change in percent (+ = the number went up).
func change(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
