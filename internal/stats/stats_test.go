package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 3, -5, 99} {
		h.Add(v)
	}
	if h.Total != 6 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Counts[0] != 2 { // 0 and clamped -5
		t.Errorf("bin 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[3] != 2 { // 3 and clamped 99
		t.Errorf("bin 3 = %d, want 2", h.Counts[3])
	}
	if got := h.Fraction(1); got != 2.0/6 {
		t.Errorf("Fraction(1) = %v", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.Add(2)
	h.Add(4)
	if got := h.Mean(); got != 3 {
		t.Fatalf("mean = %v", got)
	}
	if NewHistogram(3).Mean() != 0 {
		t.Fatal("empty histogram mean must be 0")
	}
}

func TestHistogramPanicsOnBadBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(0)
}

func TestDistance(t *testing.T) {
	a, b := NewHistogram(3), NewHistogram(3)
	a.Add(0)
	b.Add(2)
	if got := Distance(a, b); got != 2 {
		t.Fatalf("disjoint distance = %v, want 2", got)
	}
	if got := Distance(a, a); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

func TestDistanceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Distance(NewHistogram(2), NewHistogram(3))
}

func TestHammingDistance(t *testing.T) {
	if HammingDistance(0, 0) != 0 {
		t.Error("HD(0,0)")
	}
	if HammingDistance(0, 0xFFFFFFFF) != 32 {
		t.Error("HD(0,~0)")
	}
	if HammingDistance(0b1010, 0b0110) != 2 {
		t.Error("HD(1010,0110)")
	}
}

func TestHammingHistogram(t *testing.T) {
	h := HammingHistogram([]uint32{0, 1, 3, 3})
	// transitions: 0->1 (1 bit), 1->3 (1 bit), 3->3 (0 bits)
	if h.Total != 3 || h.Counts[1] != 2 || h.Counts[0] != 1 {
		t.Fatalf("histogram = %+v", h)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Percentile(nil, 0.5)
}

// NearestRank takes rank ceil(q*n), where Percentile takes index
// floor(q*(n-1)): on four elements p30 is the second against the first.
func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {0.76, 4}, {1, 4}} {
		if got := NearestRank(xs, c.q); got != c.want {
			t.Errorf("NearestRank(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := NearestRank(xs, 0.3); got != 2 {
		t.Errorf("NearestRank(%v, 0.3) = %v, want 2", xs, got)
	}
	if got := Percentile(xs, 0.3); got != 1 {
		t.Errorf("Percentile(%v, 0.3) = %v, want 1", xs, got)
	}
	type sample struct{ ms float64 }
	if got := NearestRank([]sample(nil), 0.5); got != (sample{}) {
		t.Errorf("NearestRank of an empty slice = %v, want the zero value", got)
	}
}

// Property: Hamming distance is a metric-ish symmetric function bounded by
// 32, and HD(a,a) == 0.
func TestHammingProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		d := HammingDistance(a, b)
		return d == HammingDistance(b, a) && d >= 0 && d <= 32 && HammingDistance(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: histogram distance is symmetric and bounded by 2.
func TestDistanceProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		a, b := NewHistogram(8), NewHistogram(8)
		for i, v := range raw {
			if i%2 == 0 {
				a.Add(int(v % 8))
			} else {
				b.Add(int(v % 8))
			}
		}
		d := Distance(a, b)
		return math.Abs(d-Distance(b, a)) < 1e-12 && d >= 0 && d <= 2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
