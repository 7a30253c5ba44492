// Package metrics implements the performance metrics the paper reports:
// the load-balance coefficient Ln (eq. 9) and phase time-share tables
// (Table 1).
package metrics

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
