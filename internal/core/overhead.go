package core

// Hardware overhead accounting for SynTS-online (§6.3). The thesis
// synthesises the IVM pipe stages with a 45nm FreePDK library and reports,
// after adding all SynTS hardware (Razor flip-flops on the speculative pipe
// registers, the per-core error counters, the sampling controller and the
// per-core V/f sequencer), a power overhead of ~3.41% and an area overhead
// of ~2.7% relative to the core.
//
// We reproduce the accounting over our own netlists: the combinational area
// comes from the generated stage circuits; the sequential area from the
// pipeline register widths those stages imply; the "rest of core" (fetch,
// rename, caches...) is a documented multiplier, the standard way such
// per-module synthesis numbers are extrapolated to a core.

import (
	"fmt"

	"synts/internal/gates"
)

// OverheadInputs describes one core's accounting inputs.
type OverheadInputs struct {
	// CombArea is the total combinational cell area of the speculative pipe
	// stages, in INV units (sum of netlist.Area over the analysed stages).
	CombArea float64
	// PipeRegBits is the number of pipeline-register bits guarded by Razor
	// flip-flops (the stages' input widths).
	PipeRegBits int
	// FFArea and RazorFFArea are per-bit areas in INV units.
	FFArea, RazorFFArea float64
	// RazorFFEnergyOverhead is the fractional per-bit dynamic energy
	// increase of a Razor flip-flop.
	RazorFFEnergyOverhead float64
	// RestOfCoreFactor scales the speculative-stage area to the whole core:
	// core area = (comb + seq) * RestOfCoreFactor. The IVM-style out-of-
	// order core is dominated by structures we do not model; 6x is the
	// documented substitution.
	RestOfCoreFactor float64
	// SamplingFraction is the fraction of instructions spent in the
	// sampling phase (0.1 in the thesis).
	SamplingFraction float64
	// SamplingEnergyFactor is the relative extra energy per sampled
	// instruction from running the sampling phase at sub-optimal V/f plus
	// the counter/controller activity.
	SamplingEnergyFactor float64
	// ControllerArea is the fixed area of the sampling controller, error
	// counters and V/f sequencer, in INV units.
	ControllerArea float64
}

// DefaultOverheadInputs returns the documented accounting constants; the
// caller fills CombArea and PipeRegBits from real netlists.
func DefaultOverheadInputs() OverheadInputs {
	return OverheadInputs{
		FFArea:                gates.FFArea,
		RazorFFArea:           gates.RazorFFArea,
		RazorFFEnergyOverhead: gates.RazorFFEnergyOverhead,
		RestOfCoreFactor:      6.0,
		SamplingFraction:      0.10,
		SamplingEnergyFactor:  0.25,
		ControllerArea:        220,
	}
}

// Overheads is the §6.3 result pair, as fractions of the core.
type Overheads struct {
	Area  float64
	Power float64
}

// ComputeOverheads evaluates the accounting model.
func ComputeOverheads(in OverheadInputs) (Overheads, error) {
	if in.CombArea <= 0 || in.PipeRegBits <= 0 {
		return Overheads{}, fmt.Errorf("core: overhead inputs need positive CombArea and PipeRegBits (got %v, %d)",
			in.CombArea, in.PipeRegBits)
	}
	if in.RazorFFArea < in.FFArea {
		return Overheads{}, fmt.Errorf("core: RazorFFArea %v below FFArea %v", in.RazorFFArea, in.FFArea)
	}
	seqArea := float64(in.PipeRegBits) * in.FFArea
	coreArea := (in.CombArea + seqArea) * in.RestOfCoreFactor
	extraArea := float64(in.PipeRegBits)*(in.RazorFFArea-in.FFArea) + in.ControllerArea
	area := extraArea / coreArea

	// Power: the Razor'd pipeline registers draw roughly 3x the power per
	// unit area of combinational cells (the clock toggles them every
	// cycle), and each costs RazorFFEnergyOverhead extra; the dominant term
	// — as §6.3 notes — is the sampling process, amortised as a fixed
	// energy factor over the sampled fraction of instructions.
	ffPowerShare := 3.0 * seqArea / coreArea
	if ffPowerShare > 1 {
		ffPowerShare = 1
	}
	power := ffPowerShare*in.RazorFFEnergyOverhead + in.SamplingFraction*in.SamplingEnergyFactor
	return Overheads{Area: area, Power: power}, nil
}
