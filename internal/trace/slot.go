package trace

import (
	"runtime"
	"sync"
	"sync/atomic"

	"synts/internal/timing"
)

// slot is one of the process-wide delay-trace slots. Every delay trace
// runs while holding one, so at most GOMAXPROCS traces are in flight
// however deeply the experiment, profile-build and lane pools nest, and
// the scratch a trace needs is kept by the slot instead of being
// allocated per window:
//
//   - one BlockAnalyzer per stage netlist (0.38 MB for ComplexALU);
//   - the numbering tables that turn delays into profile codes.
//
// The slot keeps no delay buffer: the engines hand each delay to the
// numbering as they produce it, and it writes the codes of the profile
// the window returns (see numbering).
//
// Reuse is exact. A window's first driving vector re-primes the analyzer
// with Reset, which re-evaluates every net's settled value; StepBlock
// recomputes every toggle mask and reads an arrival lane only where that
// block's toggle bit is set, so no value from an earlier window is ever
// read; and the touched-gate count a trace reports is the analyzer's
// delta over the call. The numbering tables are emptied before each use.
type slot struct {
	blocks [len(stageNames)]*timing.BlockAnalyzer
	nb     numbering
}

var (
	slotsOnce sync.Once
	slots     chan *slot
	// inFlight counts the slots held right now and peakInFlight its
	// high-water mark, which the bound test reads.
	inFlight, peakInFlight atomic.Int32
)

// slotPool returns the slot channel, filling it with GOMAXPROCS slots on
// first use. A later GOMAXPROCS change does not resize it.
func slotPool() chan *slot {
	slotsOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		slots = make(chan *slot, n)
		for i := 0; i < n; i++ {
			slots <- new(slot)
		}
	})
	return slots
}

// acquireSlot blocks until a slot is free and takes it. Holders always
// release (deferred, so a panicking trace does too), so the wait is
// bounded by the traces already running.
func acquireSlot() *slot {
	s := <-slotPool()
	n := inFlight.Add(1)
	for p := peakInFlight.Load(); n > p && !peakInFlight.CompareAndSwap(p, n); p = peakInFlight.Load() {
	}
	return s
}

// release returns the slot for the next trace.
func (s *slot) release() {
	inFlight.Add(-1)
	slots <- s
}

// blockAnalyzer returns the slot's analyzer for sc's netlist, made on
// first use.
func (s *slot) blockAnalyzer(sc *StageCircuit) *timing.BlockAnalyzer {
	ba := s.blocks[sc.Stage]
	if ba == nil || ba.Netlist() != sc.Netlist {
		ba = timing.NewBlockAnalyzer(sc.Netlist)
		s.blocks[sc.Stage] = ba
	}
	return ba
}
