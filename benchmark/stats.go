package main

import "sort"

// summary is the n / median / quartiles form every timing is reported in.
type summary struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) does (the default "exclusive" method),
// which is what the driver's acceptance check uses. A single value is
// its own quartiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

func summarize(vals []float64) summary {
	q1, q2, q3 := quartiles(vals)
	return summary{N: len(vals), Median: q2, Q1: q1, Q3: q3, Values: vals}
}

// spread is the interquartile distance as a share of the median, the
// quantity the regression bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	sp := (s.Q3 - s.Q1) / s.Median
	if sp < 0 {
		sp = -sp
	}
	return sp
}

// percentile is the nearest-rank p-th percentile (p in [0,100]).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	k := int(float64(len(d))*p/100+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(d) {
		k = len(d) - 1
	}
	return d[k]
}
