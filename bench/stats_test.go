package main

import "testing"

func TestQuantileNearestRankAndBeyond(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted     []float64
		q          float64
		want       float64
		wantBeyond int
	}{
		{ten, 0.5, 5, 5},
		{ten, 0.9, 9, 1},
		{ten, 0.91, 10, 0},
		{ten, 0.99, 10, 0},
		{ten, 0, 1, 9},
		{[]float64{1, 2, 2, 2, 3}, 0.5, 2, 1}, // ties count as at, not beyond
		{[]float64{7}, 0.9, 7, 0},
		{nil, 0.5, 0, 0},
	} {
		got, beyond := quantile(c.sorted, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("quantile(%v, %v) = %v, %d beyond; want %v, %d", c.sorted, c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
}

// The medians and quartiles compare prints must match Python's
// statistics.median and statistics.quantiles(values, n=4).
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 5}, 5, 5, 5},
	} {
		q1, q3 := quartiles(c.vs)
		if m := median(c.vs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v, quartiles %v %v; want %v, %v %v", c.vs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", s)
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
}
