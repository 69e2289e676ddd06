// Package stats provides the small statistical utilities the evaluation
// uses: Hamming-distance histograms (the GPGPU homogeneity analysis of
// Fig 5.10), descriptive moments, histogram similarity measures and
// quantiles.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a fixed-bin counting histogram over integer values
// [0, Bins).
type Histogram struct {
	Counts []int
	Total  int
}

// NewHistogram returns a histogram with n bins.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic(fmt.Sprintf("stats: invalid bin count %d", n))
	}
	return &Histogram{Counts: make([]int, n)}
}

// Add counts one observation; values outside [0, Bins) clamp to the edges.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Counts) {
		v = len(h.Counts) - 1
	}
	h.Counts[v]++
	h.Total++
}

// Fraction returns the normalized frequency of bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// Mean returns the mean bin index.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	var s float64
	for i, c := range h.Counts {
		s += float64(i) * float64(c)
	}
	return s / float64(h.Total)
}

// Distance returns the L1 (total-variation x2) distance between two
// normalized histograms: 0 for identical shapes, 2 for disjoint support.
func Distance(a, b *Histogram) float64 {
	if len(a.Counts) != len(b.Counts) {
		panic(fmt.Sprintf("stats: histogram size mismatch %d vs %d", len(a.Counts), len(b.Counts)))
	}
	var d float64
	for i := range a.Counts {
		d += math.Abs(a.Fraction(i) - b.Fraction(i))
	}
	return d
}

// HammingDistance returns the number of differing bits between consecutive
// 32-bit outputs — the paper's proxy for switching activity similarity.
func HammingDistance(a, b uint32) int {
	return bits.OnesCount32(a ^ b)
}

// HammingHistogram builds the Fig 5.10 artefact: the histogram of
// consecutive-output Hamming distances of one value stream (33 bins,
// 0..32 bits).
func HammingHistogram(outputs []uint32) *Histogram {
	h := NewHistogram(33)
	for i := 1; i < len(outputs); i++ {
		h.Add(HammingDistance(outputs[i-1], outputs[i]))
	}
	return h
}

// NearestRank returns the exact nearest-rank q-quantile (0..1) of an
// ascending slice: the element at rank ceil(q*n), clamped to [1, n]. An
// empty slice yields the zero value.
func NearestRank[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// Percentile returns the p-quantile (0..1) of xs on a sorted copy, taking
// the element at index floor(p*(n-1)). It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
