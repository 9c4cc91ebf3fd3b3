package main

import "sort"

// summary is a metric's distribution over a run's samples.
type summary struct {
	median, q1, q3 float64
	n              int
}

// summarize returns the median and quartiles of vs. The quartiles use
// the same "exclusive" interpolation as Python's
// statistics.quantiles(vs, n=4), so they match the spread check applied
// to the benchmark's results.
func summarize(vs []float64) summary {
	n := len(vs)
	if n == 0 {
		return summary{}
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	med := d[n/2]
	if n%2 == 0 {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n == 1 {
		return summary{median: med, q1: med, q3: med, n: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return summary{median: med, q1: q(1), q3: q(3), n: n}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}
