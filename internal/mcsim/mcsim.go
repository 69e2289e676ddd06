// Package mcsim is the multicore execution simulator: it replays the
// workload's instruction streams cycle by cycle through timing-speculative
// cores — per-core voltage/TSR from a SynTS assignment, a private data
// cache, Razor replay on the speculated pipe stage, and barrier
// synchronisation in absolute time (cores run at different clock periods,
// so barriers are met at wall-clock instants, not cycle counts).
//
// Its role is twofold: it renders the Fig 1.3-style execution timelines
// (busy/wait per core per barrier interval), and it closes the loop on the
// analytic model — the solvers optimise Eqs. 4.1–4.3, and the simulator
// confirms, instruction by instruction, that a faithful execution produces
// exactly the times and energies the equations predict (the consistency
// tests assert equality, since both sides count the same cache misses and
// the same Razor error events).
package mcsim

import (
	"fmt"

	"synts/internal/core"
	"synts/internal/cpu"
	"synts/internal/isa"
	"synts/internal/trace"
	"synts/internal/workload"
)

// Input bundles one simulation run.
type Input struct {
	// Streams are the per-thread instruction streams (one core per thread).
	Streams []*workload.Stream
	// Profiles carry the speculated stage's per-instruction sensitized
	// delays, indexed [thread][interval]; stages other than the speculated
	// one are assumed timing-safe, as in the thesis' per-stage analysis.
	Profiles [][]*trace.Profile
	// Platform supplies voltages, periods and the recovery penalty.
	Platform *core.Config
	// Cache configures each core's private data cache.
	Cache cpu.CacheConfig
	// Assignments picks each interval's per-core (voltage, TSR) levels.
	// A single-element slice is broadcast to every interval.
	Assignments []core.Assignment
}

// CoreInterval reports one core's execution of one barrier interval.
type CoreInterval struct {
	Instructions int
	Errors       int     // Razor error events
	Misses       int     // data-cache misses
	Busy         float64 // time spent executing (same units as Platform.TNom)
	Wait         float64 // idle time at the barrier
	Energy       float64
}

// Result is the full run.
type Result struct {
	// BarrierTimes[i] is the absolute time the i-th barrier is crossed.
	BarrierTimes []float64
	// Cores is indexed [interval][core].
	Cores [][]CoreInterval
	// Totals.
	TotalTime   float64
	TotalEnergy float64
	TotalErrors int
}

// Run executes the simulation.
func Run(in Input) (*Result, error) {
	if err := in.Platform.Validate(); err != nil {
		return nil, err
	}
	nCores := len(in.Streams)
	if nCores == 0 || len(in.Profiles) != nCores {
		return nil, fmt.Errorf("mcsim: %d streams vs %d profile sets", nCores, len(in.Profiles))
	}
	nIv := len(in.Streams[0].Intervals)
	for t, s := range in.Streams {
		if len(s.Intervals) != nIv {
			return nil, fmt.Errorf("mcsim: thread %d has %d intervals, thread 0 has %d", t, len(s.Intervals), nIv)
		}
		if len(in.Profiles[t]) != nIv {
			return nil, fmt.Errorf("mcsim: thread %d has %d profiles for %d intervals", t, len(in.Profiles[t]), nIv)
		}
	}
	switch len(in.Assignments) {
	case 1, nIv:
	default:
		return nil, fmt.Errorf("mcsim: %d assignments for %d intervals (want 1 or %d)", len(in.Assignments), nIv, nIv)
	}

	caches := make([]*cpu.Cache, nCores)
	for t := range caches {
		c, err := cpu.NewCache(in.Cache)
		if err != nil {
			return nil, err
		}
		caches[t] = c
	}

	res := &Result{
		BarrierTimes: make([]float64, nIv),
		Cores:        make([][]CoreInterval, nIv),
	}
	now := 0.0
	missPenalty := float64(in.Cache.MissPenalty)
	for ii := 0; ii < nIv; ii++ {
		a := in.Assignments[0]
		if len(in.Assignments) == nIv {
			a = in.Assignments[ii]
		}
		if len(a.VIdx) != nCores {
			return nil, fmt.Errorf("mcsim: assignment %d covers %d cores, want %d", ii, len(a.VIdx), nCores)
		}
		res.Cores[ii] = make([]CoreInterval, nCores)
		barrier := now
		for t := 0; t < nCores; t++ {
			v, r := a.V(in.Platform, t), a.R(in.Platform, t)
			tclk := r * in.Platform.TNom(v)
			p := in.Profiles[t][ii]
			iv := in.Streams[t].Intervals[ii]
			if p.N != len(iv) {
				return nil, fmt.Errorf("mcsim: thread %d interval %d: profile N %d vs stream %d", t, ii, p.N, len(iv))
			}
			ci := &res.Cores[ii][t]
			ci.Instructions = len(iv)
			cut := p.Cut(r * p.TCrit)
			cycles := 0.0
			for i, inst := range iv {
				cycles++ // issue
				if inst.Op.Class() == isa.ClassMem && !caches[t].Access(inst.Addr()) {
					ci.Misses++
					cycles += missPenalty
				}
				if p.Codes.At(i) >= cut {
					ci.Errors++
					cycles += in.Platform.CPenalty
				}
			}
			ci.Busy = cycles * tclk
			ci.Energy = v * v * cycles
			if finish := now + ci.Busy; finish > barrier {
				barrier = finish
			}
			res.TotalEnergy += ci.Energy
			res.TotalErrors += ci.Errors
		}
		for t := 0; t < nCores; t++ {
			res.Cores[ii][t].Wait = barrier - now - res.Cores[ii][t].Busy
		}
		res.BarrierTimes[ii] = barrier
		now = barrier
	}
	res.TotalTime = now
	return res, nil
}

// Timeline renders the Fig 1.3-style execution snapshot: one row per core,
// busy segments ('#'), barrier-wait segments ('.'), and '|' at barriers,
// scaled to the given width.
func (r *Result) Timeline(width int) []string {
	if width <= 0 || r.TotalTime <= 0 {
		return nil
	}
	nCores := len(r.Cores[0])
	rows := make([]string, nCores)
	scale := float64(width) / r.TotalTime
	for t := 0; t < nCores; t++ {
		row := make([]byte, 0, width+len(r.Cores))
		pos := 0.0
		for ii := range r.Cores {
			ci := r.Cores[ii][t]
			nBusy := int((pos+ci.Busy)*scale) - int(pos*scale)
			for k := 0; k < nBusy; k++ {
				row = append(row, '#')
			}
			pos += ci.Busy
			nWait := int((pos+ci.Wait)*scale) - int(pos*scale)
			for k := 0; k < nWait; k++ {
				row = append(row, '.')
			}
			pos += ci.Wait
			row = append(row, '|')
		}
		rows[t] = fmt.Sprintf("core %d  %s", t, row)
	}
	return rows
}
