// Package metrics implements the performance metrics the paper reports:
// the load-balance coefficient Ln (eq. 9), phase time-share tables
// (Table 1), and speedups of hybrid configurations over a pure-MPI
// baseline (Figures 6-7), plus plain-text table/bar rendering for the
// benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// LoadBalance computes the paper's Ln metric (eq. 9) over per-process
// elapsed times: sum(t_i) / (n * max(t_i)). 1 means perfectly balanced;
// 0.5 means half the resources are wasted waiting. Returns 1 for empty or
// all-zero input.
func LoadBalance(times []float64) float64 {
	if len(times) == 0 {
		return 1
	}
	sum, max := 0.0, 0.0
	for _, t := range times {
		sum += t
		if t > max {
			max = t
		}
	}
	if max == 0 {
		return 1
	}
	return sum / (float64(len(times)) * max)
}

// Speedup returns tBase/t: how much faster t is than the baseline.
func Speedup(tBase, t float64) float64 {
	if t == 0 {
		return math.Inf(1)
	}
	return tBase / t
}

// PhaseRow is one line of a Table-1-style phase report.
type PhaseRow struct {
	Name    string
	Ln      float64 // load balance of the phase across processes
	Percent float64 // share of total step time
}

// PhaseTable computes Table-1 rows from per-phase, per-rank times. The
// total used for percentages is the makespan-weighted sum over all
// phases (max over ranks of each phase, summed), which corresponds to
// the elapsed time of a bulk-synchronous step.
func PhaseTable(names []string, perPhaseTimes [][]float64) []PhaseRow {
	total := 0.0
	maxes := make([]float64, len(perPhaseTimes))
	for p, times := range perPhaseTimes {
		m := 0.0
		for _, t := range times {
			if t > m {
				m = t
			}
		}
		maxes[p] = m
		total += m
	}
	rows := make([]PhaseRow, 0, len(names))
	for p, name := range names {
		pct := 0.0
		if total > 0 {
			pct = 100 * maxes[p] / total
		}
		rows = append(rows, PhaseRow{Name: name, Ln: LoadBalance(perPhaseTimes[p]), Percent: pct})
	}
	return rows
}

// Series is a named sequence of (label, value) points — one bar group of
// a figure.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// FormatBarChart renders series as aligned text bars, for the benchmark
// harness's figure reproduction. scale is the value mapped to the full
// bar width (pass 0 to use the max value).
func FormatBarChart(title, unit string, series []Series, scale float64) string {
	const barWidth = 40
	if scale <= 0 {
		for _, s := range series {
			for _, v := range s.Values {
				if v > scale {
					scale = v
				}
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for _, s := range series {
		fmt.Fprintf(&sb, "  %s\n", s.Name)
		for i, v := range s.Values {
			n := int(math.Round(v / scale * barWidth))
			if n > barWidth {
				n = barWidth
			}
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&sb, "    %-12s %8.3f %s |%s\n", s.Labels[i], v, unit, strings.Repeat("#", n))
		}
	}
	return sb.String()
}

// GeoMean returns the geometric mean of positive values (0 if any value
// is non-positive or the slice is empty).
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}

// WithinFactor reports whether got is within factor f of want
// (f >= 1; e.g. f=1.5 accepts [want/1.5, want*1.5]). Used by the
// experiment harness to compare measured shapes against paper values.
func WithinFactor(got, want, f float64) bool {
	if want == 0 {
		return got == 0
	}
	r := got / want
	return r >= 1/f && r <= f
}
