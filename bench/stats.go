package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of an ascending sample —
// the smallest value with at least q of the sample at or below it — and
// how many samples lie strictly beyond it. An empty sample gives 0, 0.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	v = sorted[i]
	return v, n - sort.Search(n, func(j int) bool { return sorted[j] > v })
}

// sortedCopy returns vs in ascending order without touching vs.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// median averages the two middle values of an even sample, as Python's
// statistics.median does, so a reader recomputing a median of repeats
// from the result file gets the same number. Latency percentiles use
// quantile instead.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(values, n=4): the definition
// behind the run-to-run spread compare prints. Fewer than two values give
// a zero-width interval at the single value (or at 0).
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median (0 when the
// median is 0).
func spread(vs []float64) float64 {
	med := median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(med)
}
