// Package vscale models how supply voltage scales the propagation delay of
// CMOS logic and, therefore, the nominal (error-free) clock period of a core.
//
// The paper derives its voltage-to-period table (Table 5.1) from HSPICE
// simulations of 22 nm ring oscillators using the Predictive Technology
// Model. This package substitutes an alpha-power-law device model that is
// calibrated to reproduce the same table, and additionally embeds the paper's
// exact table for experiments that must match it point for point.
//
// Two models are provided:
//
//   - AlphaPowerModel: t_d(V) ∝ V / (V - Vth)^alpha, the classic Sakurai–Newton
//     alpha-power law. This is the "ring oscillator simulation" substitute.
//   - TableModel: monotone piecewise-linear interpolation over explicit
//     (voltage, multiplier) points; PaperTable returns the thesis' Table 5.1.
//
// All models report the *multiplier* of the nominal clock period relative to
// the period at the reference voltage (1.0 V), so TNom(1.0) == 1 exactly.
package vscale

import (
	"fmt"
	"math"
	"sort"
)

// AlphaPowerModel is the Sakurai–Newton alpha-power-law delay model:
//
//	t_d(V) = K * V / (V - Vth)^Alpha
//
// normalized so that TNom(Vdd=VNom) == 1.
type AlphaPowerModel struct {
	Vth   float64 // threshold voltage in volts
	Alpha float64 // velocity-saturation exponent, between 1 (saturated) and 2 (long channel)
	VNom  float64 // reference supply voltage
}

// Default22nm returns an alpha-power model calibrated against the thesis'
// 22 nm ring-oscillator table (Table 5.1): Vth=0.47 V, alpha=1.30 reproduces
// the 2.63x slowdown at 0.65 V within a few percent.
func Default22nm() AlphaPowerModel {
	return AlphaPowerModel{Vth: 0.47, Alpha: 1.30, VNom: 1.0}
}

// TNom returns the clock-period multiplier at voltage v. It panics if v is
// not above the threshold voltage, because the device does not switch there.
func (m AlphaPowerModel) TNom(v float64) float64 {
	if v <= m.Vth {
		panic(fmt.Sprintf("vscale: supply voltage %.3f V at or below threshold %.3f V", v, m.Vth))
	}
	d := func(v float64) float64 { return v / math.Pow(v-m.Vth, m.Alpha) }
	return d(v) / d(m.VNom)
}

// TableModel interpolates the clock-period multiplier from explicit
// (voltage, multiplier) calibration points, such as the paper's Table 5.1.
type TableModel struct {
	vs []float64 // ascending voltages
	ts []float64 // corresponding multipliers (descending)
}

// NewTable builds a TableModel from parallel slices of voltages and period
// multipliers. It returns an error if the input is empty, mismatched, has
// duplicate voltages, or is not monotone (lower voltage must mean a larger
// multiplier).
func NewTable(voltages, multipliers []float64) (*TableModel, error) {
	if len(voltages) == 0 || len(voltages) != len(multipliers) {
		return nil, fmt.Errorf("vscale: need equal, non-zero numbers of voltages and multipliers (got %d and %d)", len(voltages), len(multipliers))
	}
	type pt struct{ v, t float64 }
	pts := make([]pt, len(voltages))
	for i := range voltages {
		pts[i] = pt{voltages[i], multipliers[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	m := &TableModel{vs: make([]float64, len(pts)), ts: make([]float64, len(pts))}
	for i, p := range pts {
		if i > 0 && p.v == pts[i-1].v {
			return nil, fmt.Errorf("vscale: duplicate voltage %.3f", p.v)
		}
		if i > 0 && p.t >= pts[i-1].t {
			return nil, fmt.Errorf("vscale: multiplier must strictly decrease with voltage (%.3f V -> %.3fx after %.3f V -> %.3fx)",
				p.v, p.t, pts[i-1].v, pts[i-1].t)
		}
		m.vs[i], m.ts[i] = p.v, p.t
	}
	return m, nil
}

// PaperVoltages lists the seven supply voltages of the thesis' Table 5.1,
// in the order printed there (descending).
func PaperVoltages() []float64 {
	return []float64{1.0, 0.92, 0.86, 0.8, 0.72, 0.68, 0.65}
}

// PaperMultipliers lists the nominal-clock-period multipliers of Table 5.1
// corresponding to PaperVoltages.
func PaperMultipliers() []float64 {
	return []float64{1.0, 1.13, 1.27, 1.39, 1.63, 2.21, 2.63}
}

// PaperTable returns the exact Table 5.1 from the thesis as a TableModel.
func PaperTable() *TableModel {
	m, err := NewTable(PaperVoltages(), PaperMultipliers())
	if err != nil {
		panic("vscale: paper table invalid: " + err.Error()) // unreachable: constants are valid
	}
	return m
}

// TNom returns the clock-period multiplier at voltage v, interpolating
// linearly between calibration points and extrapolating from the closest
// segment outside the calibrated range.
func (m *TableModel) TNom(v float64) float64 {
	vs, ts := m.vs, m.ts
	if len(vs) == 1 {
		return ts[0]
	}
	// Locate segment.
	i := sort.SearchFloat64s(vs, v)
	switch {
	case i == 0:
		i = 1 // extrapolate from first segment
	case i >= len(vs):
		i = len(vs) - 1 // extrapolate from last segment
	}
	v0, v1 := vs[i-1], vs[i]
	t0, t1 := ts[i-1], ts[i]
	return t0 + (v-v0)*(t1-t0)/(v1-v0)
}
