// Package timing measures the sensitized path delay of a combinational
// netlist for a stream of input vectors, and computes the static critical
// path (STA) that defines the nominal clock period.
//
// This substitutes the paper's flow of feeding gem5-extracted cycle-by-cycle
// input vectors into a Synopsys-synthesised netlist with HSPICE-derived gate
// delays. A timing error occurs when an instruction's sensitized delay
// exceeds the speculative clock period r * t_nom; t_nom is the STA critical
// path (the vendor-rated safe period at the given voltage).
//
// Two delay models are provided:
//
//   - Analyzer.Step: a levelized transition-arrival pass over every gate. A
//     net's transition arrival is gate delay plus the latest arrival among
//     inputs that themselves changed. Hazards (glitches that settle back)
//     are not modelled. This is the golden reference for the model.
//   - EventSim.Step: an exact transport-delay event-driven simulator that
//     does model glitches. Used to validate the levelized pass and for the
//     glitch-sensitivity ablation.
//
// BlockAnalyzer.StepBlock computes the levelized model faster while
// reproducing its delays bit for bit (same float arithmetic per gate, same
// gate order): a BitEval pass evaluates 64 consecutive vectors at once (one
// uint64 lane-word per net), and the per-vector arrival walk then consumes
// precomputed toggle masks instead of re-evaluating gates. This is the
// engine behind trace.DelayTrace's default -engine=event path.
//
// For every model, the delay of a vector is the time of the last transition on any
// primary output: outputs that are still switching when the clock edge
// arrives are what Razor flags.
package timing

import (
	"math"

	"synts/internal/netlist"
)

// Analyzer owns the levelized state for one netlist. It is not safe for
// concurrent use; create one per goroutine.
type Analyzer struct {
	n       *netlist.Netlist
	vals    []bool    // current settled values per net
	arr     []float64 // transition arrival per net for the current step; <0 = no transition
	outSet  []bool    // per net: is a primary output
	inited  bool
	touched int64 // gates with at least one changed input, across all steps
}

// NewAnalyzer returns an analyzer for the netlist.
func NewAnalyzer(n *netlist.Netlist) *Analyzer {
	a := &Analyzer{
		n:      n,
		vals:   make([]bool, n.NumNets()),
		arr:    make([]float64, n.NumNets()),
		outSet: make([]bool, n.NumNets()),
	}
	for _, t := range n.Outputs {
		a.outSet[t] = true
	}
	return a
}

// CriticalPath returns the STA longest path from any input to any output,
// in picoseconds at nominal voltage. This is t_nom for the stage.
func (a *Analyzer) CriticalPath() float64 {
	n := a.n
	arr := make([]float64, n.NumNets())
	for _, g := range n.Gates {
		worst := 0.0
		for i := 0; i < g.Kind.NumInputs(); i++ {
			if t := arr[g.In[i]]; t > worst {
				worst = t
			}
		}
		arr[g.Out] = worst + g.Delay
	}
	crit := 0.0
	for _, t := range n.Outputs {
		if arr[t] > crit {
			crit = arr[t]
		}
	}
	return crit
}

// Reset establishes the initial input state without measuring a delay
// (the first vector of a trace has no predecessor to transition from).
func (a *Analyzer) Reset(in []bool) {
	a.vals = a.n.Eval(in, a.vals)
	a.inited = true
	a.touched += int64(len(a.n.Gates)) // the priming pass evaluates every gate
}

// Touched returns the cumulative number of gate evaluations performed: one
// per gate for each Reset, plus — per Step — one per gate that saw at least
// one changed input. The levelized pass visits every gate per Step but only
// the touched ones do real work; the incremental engines visit exactly the
// touched set, so this count is engine-independent and is what the
// trace.gate_evals counter and the simprof issue-phase attribution report.
func (a *Analyzer) Touched() int64 { return a.touched }

// Step applies the next input vector and returns the sensitized delay: the
// latest transition arrival on any primary output, or 0 if no output
// switches. Reset must have been called first.
func (a *Analyzer) Step(in []bool) float64 {
	if !a.inited {
		panic("timing: Step before Reset")
	}
	n := a.n
	const none = -1.0
	// Primary inputs: transition at t=0 if the value changed.
	for i, t := range n.Inputs {
		if a.vals[t] != in[i] {
			a.vals[t] = in[i]
			a.arr[t] = 0
		} else {
			a.arr[t] = none
		}
	}
	delay := 0.0
	var pins [3]bool
	for _, g := range n.Gates {
		k := g.Kind.NumInputs()
		worst := none
		changed := false
		for i := 0; i < k; i++ {
			tin := g.In[i]
			pins[i] = a.vals[tin]
			if t := a.arr[tin]; t >= 0 {
				changed = true
				if t > worst {
					worst = t
				}
			}
		}
		if !changed {
			a.arr[g.Out] = none
			continue
		}
		a.touched++
		nv := g.Kind.Eval(pins[:k])
		if nv == a.vals[g.Out] {
			a.arr[g.Out] = none
			continue
		}
		a.vals[g.Out] = nv
		t := worst + g.Delay
		a.arr[g.Out] = t
		if a.outSet[g.Out] && t > delay {
			delay = t
		}
	}
	// A primary input that is also a primary output (pass-through) would be
	// handled here; our stages have none, but stay correct anyway.
	for _, t := range n.Inputs {
		if a.outSet[t] && a.arr[t] >= 0 {
			// arrival 0; cannot exceed any gate delay, so no update needed
			_ = t
		}
	}
	return delay
}

// EventSim is an exact transport-delay event-driven simulator. It models
// glitches: an output that toggles and settles back still registers its
// last transition time. Intended for validation and ablation on bounded
// traces; it is considerably slower than Analyzer.
type EventSim struct {
	n      *netlist.Netlist
	vals   []bool
	fanout [][]int32 // net -> gate indices it feeds
	outSet []bool
	inited bool
	h      eventHeap // event queue; each Step empties it and keeps its capacity
}

// NewEventSim returns an event-driven simulator for the netlist.
func NewEventSim(n *netlist.Netlist) *EventSim {
	s := &EventSim{
		n:      n,
		vals:   make([]bool, n.NumNets()),
		fanout: make([][]int32, n.NumNets()),
		outSet: make([]bool, n.NumNets()),
	}
	for gi, g := range n.Gates {
		for i := 0; i < g.Kind.NumInputs(); i++ {
			s.fanout[g.In[i]] = append(s.fanout[g.In[i]], int32(gi))
		}
	}
	for _, t := range n.Outputs {
		s.outSet[t] = true
	}
	return s
}

type event struct {
	t   float64
	net netlist.Net
	val bool
	seq int64 // tie-break for determinism
}

// eventHeap is a min-heap ordered by (t, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	nl := len(old) - 1
	old[0] = old[nl]
	*h = old[:nl]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < nl && (*h).less(l, small) {
			small = l
		}
		if r < nl && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// Reset establishes the initial settled state without measuring a delay.
func (s *EventSim) Reset(in []bool) {
	s.vals = s.n.Eval(in, s.vals)
	s.inited = true
}

// Step applies the next input vector and returns the time of the last
// transition on any primary output (0 if outputs never switch).
func (s *EventSim) Step(in []bool) float64 {
	if !s.inited {
		panic("timing: Step before Reset")
	}
	n := s.n
	h := s.h[:0]
	var seq int64
	for i, t := range n.Inputs {
		if s.vals[t] != in[i] {
			h.push(event{t: 0, net: t, val: in[i], seq: seq})
			seq++
		}
	}
	settle := 0.0
	var pins [3]bool
	for len(h) > 0 {
		e := h.pop()
		if s.vals[e.net] == e.val {
			continue // superseded by an earlier glitch resolution
		}
		s.vals[e.net] = e.val
		if s.outSet[e.net] && e.t > settle {
			settle = e.t
		}
		for _, gi := range s.fanout[e.net] {
			g := n.Gates[gi]
			k := g.Kind.NumInputs()
			for i := 0; i < k; i++ {
				pins[i] = s.vals[g.In[i]]
			}
			nv := g.Kind.Eval(pins[:k])
			// Transport delay: schedule the new value; if it matches the
			// current value the event becomes a no-op on arrival unless a
			// glitch flips the net in between.
			h.push(event{t: e.t + g.Delay, net: g.Out, val: nv, seq: seq})
			seq++
		}
		if math.IsInf(e.t, 0) {
			panic("timing: unbounded event time (combinational loop?)")
		}
	}
	s.h = h
	return settle
}
