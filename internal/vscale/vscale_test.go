package vscale

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperTableRoundTrip(t *testing.T) {
	m := PaperTable()
	vs, ms := PaperVoltages(), PaperMultipliers()
	for i, v := range vs {
		if got := m.TNom(v); math.Abs(got-ms[i]) > 1e-12 {
			t.Errorf("TNom(%.2f) = %v, want %v", v, got, ms[i])
		}
	}
}

func TestPaperTableReference(t *testing.T) {
	m := PaperTable()
	if m.TNom(1.0) != 1.0 {
		t.Fatalf("TNom(1.0) = %v, want 1.0", m.TNom(1.0))
	}
}

func TestPaperTableInterpolationMonotone(t *testing.T) {
	m := PaperTable()
	prev := math.Inf(1)
	for v := 0.65; v <= 1.0+1e-9; v += 0.001 {
		got := m.TNom(v)
		if got > prev {
			t.Fatalf("TNom not monotone non-increasing: TNom(%.3f)=%v > previous %v", v, got, prev)
		}
		prev = got
	}
}

func TestPaperTableInterpolationBetweenPoints(t *testing.T) {
	m := PaperTable()
	// Midpoint of (0.92 -> 1.13) and (1.0 -> 1.0) segments.
	got := m.TNom(0.96)
	want := (1.13 + 1.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("TNom(0.96) = %v, want %v", got, want)
	}
}

func TestPaperTableExtrapolation(t *testing.T) {
	m := PaperTable()
	if got := m.TNom(1.05); got >= 1.0 {
		t.Errorf("TNom(1.05) = %v, want < 1 (extrapolated faster)", got)
	}
	if got := m.TNom(0.60); got <= 2.63 {
		t.Errorf("TNom(0.60) = %v, want > 2.63 (extrapolated slower)", got)
	}
}

func TestNewTableValidation(t *testing.T) {
	cases := []struct {
		name string
		v, m []float64
	}{
		{"empty", nil, nil},
		{"mismatched", []float64{1.0}, []float64{1.0, 2.0}},
		{"duplicate voltage", []float64{1.0, 1.0}, []float64{1.0, 1.2}},
		{"non-monotone", []float64{0.8, 1.0}, []float64{0.9, 1.0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewTable(c.v, c.m); err == nil {
				t.Errorf("NewTable(%v, %v): want error, got nil", c.v, c.m)
			}
		})
	}
}

func TestNewTableSortsInput(t *testing.T) {
	m, err := NewTable([]float64{0.8, 1.0, 0.9}, []float64{1.5, 1.0, 1.2})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if got := m.TNom(0.9); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("TNom(0.9) = %v, want 1.2", got)
	}
}

func TestNewTableSingleEntry(t *testing.T) {
	m, err := NewTable([]float64{0.9}, []float64{1.0})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if got := m.TNom(0.5); got != 1.0 {
		t.Errorf("single-point table TNom(0.5) = %v, want 1.0", got)
	}
}

func TestAlphaPowerReference(t *testing.T) {
	m := Default22nm()
	if got := m.TNom(m.VNom); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TNom(VNom) = %v, want 1", got)
	}
}

func TestAlphaPowerApproximatesPaperTable(t *testing.T) {
	// The calibrated alpha-power law should land within 20% of every paper
	// table point. It is a device model, not a curve fit, so we allow slack;
	// the end points (1.0 V and 0.65 V) should be much tighter.
	m := Default22nm()
	vs, ms := PaperVoltages(), PaperMultipliers()
	for i, v := range vs {
		got := m.TNom(v)
		relErr := math.Abs(got-ms[i]) / ms[i]
		if relErr > 0.20 {
			t.Errorf("TNom(%.2f) = %.3f, paper %.3f: relative error %.1f%% > 20%%", v, got, ms[i], relErr*100)
		}
	}
	if relErr := math.Abs(m.TNom(0.65)-2.63) / 2.63; relErr > 0.05 {
		t.Errorf("endpoint 0.65 V: relative error %.1f%% > 5%%", relErr*100)
	}
}

func TestAlphaPowerPanicsBelowThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TNom at Vth did not panic")
		}
	}()
	m := Default22nm()
	m.TNom(m.Vth)
}

// Property: for any valid supply voltage above threshold, the alpha-power
// model is monotone (lower voltage -> slower circuit).
func TestAlphaPowerMonotoneProperty(t *testing.T) {
	m := Default22nm()
	f := func(a, b uint16) bool {
		// Map to (Vth, 1.2] range, ensure va < vb.
		lo, hi := m.Vth+0.01, 1.2
		va := lo + (hi-lo)*float64(a)/65535
		vb := lo + (hi-lo)*float64(b)/65535
		if va > vb {
			va, vb = vb, va
		}
		if va == vb {
			return true
		}
		return m.TNom(va) >= m.TNom(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: table interpolation never leaves the envelope of its calibration
// points inside the calibrated voltage range.
func TestTableInterpolationBoundedProperty(t *testing.T) {
	m := PaperTable()
	f := func(a uint16) bool {
		v := 0.65 + (1.0-0.65)*float64(a)/65535
		got := m.TNom(v)
		return got >= 1.0-1e-12 && got <= 2.63+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
