package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a lock-free streaming histogram over positive float64
// observations (typically durations in nanoseconds). It uses
// DDSketch-style logarithmic buckets with growth factor gamma, so any
// quantile estimate q̂ satisfies |q̂ - q| <= (sqrt(gamma)-1) * q relative
// error (~2.5% at gamma = 1.05) regardless of the value distribution —
// tight enough to read p99 queue waits straight off the snapshot.
//
// All methods are safe for concurrent use and nil-receiver-safe.
type Histogram struct {
	name string

	count atomic.Uint64
	sum   atomic.Uint64 // float64 bits, CAS-updated
	min   atomic.Uint64 // float64 bits, CAS-updated
	max   atomic.Uint64 // float64 bits, CAS-updated

	zero    atomic.Uint64 // observations <= 0
	buckets [histBuckets]atomic.Uint64
}

const (
	histGamma   = 1.05
	histBuckets = 2048
	// histOffset centres the bucket index range: bucket k holds values in
	// (gamma^(k-offset-1), gamma^(k-offset)], covering ~2e-22 .. 5e21.
	histOffset = 1024
)

var (
	histLogGamma    = math.Log(histGamma)
	histInvLogGamma = 1 / histLogGamma
)

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.min.Store(float64bits(math.Inf(1)))
	h.max.Store(float64bits(math.Inf(-1)))
	return h
}

// Observe records one value; no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
	if v <= 0 || math.IsNaN(v) {
		h.zero.Add(1)
		return
	}
	k := int(math.Ceil(math.Log(v)*histInvLogGamma)) + histOffset
	if k < 0 {
		k = 0
	} else if k >= histBuckets {
		k = histBuckets - 1
	}
	h.buckets[k].Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64frombits(h.sum.Load())
}

// Mean returns the arithmetic mean (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation (0 when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return float64frombits(h.min.Load())
}

// Max returns the largest observation (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return float64frombits(h.max.Load())
}

// Quantile returns the estimated q-quantile (q in [0,1]); 0 when empty or
// nil. The estimate is the geometric midpoint of the bucket holding the
// rank, bounding the relative error by sqrt(gamma)-1.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(n-1) // 0-based fractional rank
	cum := float64(h.zero.Load())
	if cum > rank {
		return 0
	}
	for k := 0; k < histBuckets; k++ {
		c := h.buckets[k].Load()
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum > rank {
			return math.Exp((float64(k-histOffset) - 0.5) * histLogGamma)
		}
	}
	return h.Max()
}

func float64bits(v float64) uint64     { return math.Float64bits(v) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }

func atomicAddFloat(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		next := float64bits(float64frombits(old) + v)
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if float64frombits(old) <= v {
			return
		}
		if cell.CompareAndSwap(old, float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if float64frombits(old) >= v {
			return
		}
		if cell.CompareAndSwap(old, float64bits(v)) {
			return
		}
	}
}
