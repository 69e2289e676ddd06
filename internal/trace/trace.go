// Package trace turns workload instruction streams into per-pipe-stage
// sensitized-delay traces and empirical error-probability functions — the
// cross-layer step of the methodology (Fig 5.8): architectural simulation
// produces cycle-by-cycle stage input vectors, circuit-level timing
// analysis turns them into per-instruction path delays, and the fraction of
// instructions whose delay exceeds r * t_nom is the error probability at
// timing-speculation ratio r.
package trace

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"synts/internal/core"
	"synts/internal/cpu"
	"synts/internal/isa"
	"synts/internal/netlist"
	"synts/internal/obs"
	"synts/internal/pool"
	"synts/internal/simprof"
	"synts/internal/timing"
	"synts/internal/workload"
)

// Stage identifies one of the three analysed pipe stages.
type Stage int

// The analysed pipe stages (§5.3).
const (
	Decode Stage = iota
	SimpleALU
	ComplexALU
)

var stageNames = [...]string{"Decode", "SimpleALU", "ComplexALU"}

// String returns the stage name as the thesis spells it.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Stages lists all three analysed stages.
func Stages() []Stage { return []Stage{Decode, SimpleALU, ComplexALU} }

// stageTCrit holds each stage's STA critical path, the
// timing.NewAnalyzer(n).CriticalPath() of its netlist n, so that reading
// it builds no netlist. buildStage checks every netlist it builds against
// this table bit for bit.
var stageTCrit = [...]float64{
	Decode:     298.4979552534674,
	SimpleALU:  302.71396755043656,
	ComplexALU: 1577.2382260890206,
}

// TCrit returns the stage's STA critical path, ps at nominal voltage.
func (s Stage) TCrit() float64 { return stageTCrit[s] }

// StageCircuit couples a stage's netlist with its bus layout and STA
// critical path, and knows how to translate an instruction into the
// stage's input vector.
type StageCircuit struct {
	Stage   Stage
	Netlist *netlist.Netlist
	TCrit   float64 // STA critical path, ps at nominal voltage

	in []bool // scratch input vector
	// lastTouched holds, per instruction of the most recent trace, the
	// number of gates the timing engine touched (nil unless the simprof
	// profiler was on). Touched counts are a property of the
	// vector stream, not the engine, so attribution is engine-independent.
	lastTouched []int64
	pc          uint32 // synthetic program counter (Decode stage)
	opBus       netlist.Bus
	aBus        netlist.Bus
	bBus        netlist.Bus
	cBus        netlist.Bus
	instBus     netlist.Bus
	pcBus       netlist.Bus
}

var (
	circuitCacheMu sync.Mutex
	circuitCache   = map[Stage]*StageCircuit{}
)

// NewStageCircuit builds (or returns a cached copy of) the netlist for a
// stage. The returned value contains per-call scratch state and must not be
// shared across goroutines; call NewStageCircuit in each goroutine.
func NewStageCircuit(s Stage) *StageCircuit {
	circuitCacheMu.Lock()
	base, ok := circuitCache[s]
	if !ok {
		base = buildStage(s)
		circuitCache[s] = base
	}
	circuitCacheMu.Unlock()
	// Shallow copy sharing the immutable netlist; private scratch.
	sc := *base
	sc.in = make([]bool, len(sc.Netlist.Inputs))
	return &sc
}

func buildStage(s Stage) *StageCircuit {
	sc := &StageCircuit{Stage: s}
	switch s {
	case Decode:
		sc.Netlist = netlist.NewDecode()
		sc.instBus = sc.Netlist.InputBus("instr")
		sc.pcBus = sc.Netlist.InputBus("pc")
	case SimpleALU:
		sc.Netlist = netlist.NewSimpleALU(32)
		sc.opBus = sc.Netlist.InputBus("op")
		sc.aBus = sc.Netlist.InputBus("a")
		sc.bBus = sc.Netlist.InputBus("b")
	case ComplexALU:
		sc.Netlist = netlist.NewComplexALU(32)
		sc.opBus = sc.Netlist.InputBus("op")
		sc.aBus = sc.Netlist.InputBus("a")
		sc.bBus = sc.Netlist.InputBus("b")
		sc.cBus = sc.Netlist.InputBus("c")
	default:
		panic("trace: unknown stage " + s.String())
	}
	sc.TCrit = timing.NewAnalyzer(sc.Netlist).CriticalPath()
	if math.Float64bits(sc.TCrit) != math.Float64bits(s.TCrit()) {
		panic(fmt.Sprintf("trace: %v critical path is %v ps by STA, %v ps in stageTCrit", s, sc.TCrit, s.TCrit()))
	}
	return sc
}

// aluOpFor maps an ISA op to the SimpleALU op-select encoding, mirroring
// the Decode stage's control plane.
func aluOpFor(op isa.Op) uint64 {
	switch op {
	case isa.ADD, isa.ADDI, isa.LD, isa.ST:
		return netlist.ALUAdd
	case isa.SUB, isa.BEQ, isa.BNE:
		return netlist.ALUSub
	case isa.AND:
		return netlist.ALUAnd
	case isa.OR:
		return netlist.ALUOr
	case isa.XOR:
		return netlist.ALUXor
	case isa.SLT:
		return netlist.ALUSlt
	case isa.SHL:
		return netlist.ALUShl
	case isa.SHR:
		return netlist.ALUShr
	default:
		panic("trace: no SimpleALU encoding for " + op.String())
	}
}

// Drives reports whether an instruction produces new input activity at this
// stage. Instructions that do not drive a stage leave its operand latches
// unchanged (operand isolation) and therefore cannot cause a timing error
// there.
func (sc *StageCircuit) Drives(in isa.Inst) bool {
	switch sc.Stage {
	case Decode:
		return true // every instruction is decoded
	case SimpleALU:
		switch in.Op.Class() {
		case isa.ClassSimple, isa.ClassMem, isa.ClassBranch:
			return true
		}
		return false
	case ComplexALU:
		return in.Op.Class() == isa.ClassComplex
	}
	return false
}

// Vector fills the stage input vector for an instruction. It must only be
// called when Drives(in) is true.
func (sc *StageCircuit) Vector(in isa.Inst) []bool {
	n := sc.Netlist
	switch sc.Stage {
	case Decode:
		n.SetBusUint(sc.in, sc.instBus, uint64(isa.Encode(in)))
		sc.stepPC(in)
		n.SetBusUint(sc.in, sc.pcBus, uint64(0x0040_0000+sc.pc))
	case SimpleALU:
		n.SetBusUint(sc.in, sc.opBus, aluOpFor(in.Op))
		a, b := in.A, in.B
		if in.Op.Class() == isa.ClassMem {
			// Address generation: base + sign-extended displacement.
			b = uint32(int32(int16(in.Imm())))
			a = in.Addr() - b
		}
		n.SetBusUint(sc.in, sc.aBus, uint64(a))
		n.SetBusUint(sc.in, sc.bBus, uint64(b))
	case ComplexALU:
		op := uint64(0)
		if in.Op == isa.MAC {
			op = 1
		}
		n.SetBusUint(sc.in, sc.opBus, op)
		n.SetBusUint(sc.in, sc.aBus, uint64(in.A))
		n.SetBusUint(sc.in, sc.bBus, uint64(in.B))
		n.SetBusUint(sc.in, sc.cBus, uint64(in.C))
	}
	return sc.in
}

// stepPC advances the synthetic fetch PC over one instruction. Fetch-path
// model: the PC advances one word per instruction and jumps on taken
// branches (their Result is 1), so the Decode target adder sees both
// incremental carries and the discontinuities of a thread's real control
// flow.
func (sc *StageCircuit) stepPC(in isa.Inst) {
	if in.Op.Class() == isa.ClassBranch && in.Result() == 1 {
		sc.pc += uint32(int32(int16(in.Imm()))) * 4
	} else {
		sc.pc += 4
	}
}

// SeekPC fast-forwards the fetch PC over earlier barrier intervals without
// simulating them. A fresh circuit positioned with SeekPC produces exactly
// the delay trace a circuit that walked the earlier intervals would: the PC
// is the only StageCircuit state that survives interval boundaries
// (DelayTrace re-primes its analyzer per interval). This is what makes
// (thread, interval) a legal parallel work unit.
func (sc *StageCircuit) SeekPC(earlier [][]isa.Inst) {
	if sc.Stage != Decode {
		return // only the Decode vector depends on the PC
	}
	for _, iv := range earlier {
		for _, in := range iv {
			sc.stepPC(in)
		}
	}
}

// DelayTrace computes the sensitized delay of every instruction in the
// window. Instructions that do not drive the stage hold its inputs and get
// delay 0. The engine state persists across the whole window, so
// back-to-back instructions see realistic previous-vector transitions.
//
// The engine is selected process-wide (SetEngine / cmd/synts -engine):
// the default event engine and the levelized reference produce bit-equal
// delays, so the choice never changes any downstream artefact. The
// trace.gate_evals counter records *touched* gates (gates with at least
// one changed input, plus one full pass for the priming vector) — an
// engine-independent measure of the work the vector stream demands.
//
// The trace runs while holding one of GOMAXPROCS process-wide slots (see
// slot), so it may wait for a running trace to finish.
func (sc *StageCircuit) DelayTrace(iv []isa.Inst) []float64 {
	s := acquireSlot()
	defer s.release()
	p := s.profile(sc, CurrentEngine(), iv)
	delays := make([]float64, len(iv))
	for i := range delays {
		delays[i] = p.Levels[p.Codes.At(i)].Delay
	}
	return delays
}

// Profile returns NewProfile(sc.TCrit, sc.DelayTrace(iv)), running the
// trace and the compaction in one slot: each delay is numbered with the
// slot's tables as the engine produces it, so the window allocates only
// the profile it returns.
func (sc *StageCircuit) Profile(iv []isa.Inst) *Profile {
	s := acquireSlot()
	defer s.release()
	return s.profile(sc, CurrentEngine(), iv)
}

// profile traces the window with engine e on a slot the caller already
// holds, numbering each instruction's delay as it is produced, and
// records the window on the obs counters.
func (s *slot) profile(sc *StageCircuit, e Engine, iv []isa.Inst) *Profile {
	s.nb.start(len(iv))
	perInst := simprof.Enabled() // issue-phase attribution wants per-op touched counts
	var touched int64
	if e == EngineLevelized {
		touched = sc.delayTraceLevelized(iv, &s.nb, perInst)
	} else {
		touched = sc.delayTraceEvent(s, iv, perInst)
	}
	if obs.Enabled() {
		obs.C("trace.gate_evals").Add(touched)
		obs.C("trace.instructions").Add(int64(len(iv)))
	}
	return s.nb.profile(sc.TCrit)
}

// delayTraceLevelized is the reference path: one full levelized pass per
// driving vector, on a fresh analyzer. It numbers every instruction's
// delay with nb and returns the window's touched-gate count; with perInst
// it also records per-instruction touched counts in sc.lastTouched (nil
// otherwise).
func (sc *StageCircuit) delayTraceLevelized(iv []isa.Inst, nb *numbering, perInst bool) int64 {
	an := timing.NewAnalyzer(sc.Netlist)
	var touched []int64
	if perInst {
		touched = make([]int64, len(iv))
	}
	primed := false
	var prev int64
	for i, in := range iv {
		if !sc.Drives(in) {
			nb.add(i, 0) // inputs held
			continue
		}
		vec := sc.Vector(in)
		if !primed {
			an.Reset(vec) // first driving vector establishes state
			primed = true
			nb.add(i, 0)
		} else {
			nb.add(i, an.Step(vec))
		}
		if perInst {
			touched[i] = an.Touched() - prev
			prev = an.Touched()
		}
	}
	sc.lastTouched = touched
	return an.Touched()
}

// delayTraceEvent is the fast path: driving vectors are packed 64 at a
// time into uint64 lanes (bit j of inWords[i] = input i of the block's
// j-th vector), one bit-parallel pass settles each block, and each
// vector's delay comes from an event-driven walk of its changed-net
// fanout cone. Delays are bit-identical to delayTraceLevelized, and reach
// the slot's numbering when their block is flushed, after the held
// instructions interleaved with it. The analyzer is the slot's, re-primed
// by the window's first driving vector.
func (sc *StageCircuit) delayTraceEvent(s *slot, iv []isa.Inst, perInst bool) int64 {
	n := sc.Netlist
	ba := s.blockAnalyzer(sc)
	before := ba.Touched()
	var touched []int64
	var blockTouched []int64
	if perInst {
		touched = make([]int64, len(iv))
		blockTouched = make([]int64, 64)
	}
	inWords := make([]uint64, len(n.Inputs))
	blockDelays := make([]float64, 64)
	var lanePos [64]int // lane -> instruction index
	lanes := 0
	flush := func() {
		if lanes == 0 {
			return
		}
		ba.StepBlock(inWords, lanes, blockDelays, blockTouched)
		for j := 0; j < lanes; j++ {
			s.nb.add(lanePos[j], blockDelays[j])
			if perInst {
				touched[lanePos[j]] = blockTouched[j]
			}
		}
		for i := range inWords {
			inWords[i] = 0
		}
		lanes = 0
	}
	primed := false
	for i, in := range iv {
		if !sc.Drives(in) {
			s.nb.add(i, 0) // inputs held
			continue
		}
		vec := sc.Vector(in)
		if !primed {
			ba.Reset(vec) // first driving vector establishes state
			primed = true
			s.nb.add(i, 0)
			if perInst {
				touched[i] = int64(len(n.Gates))
			}
			continue
		}
		for b, v := range vec {
			if v {
				inWords[b] |= 1 << uint(lanes)
			}
		}
		lanePos[lanes] = i
		lanes++
		if lanes == 64 {
			flush()
		}
	}
	flush()
	sc.lastTouched = touched
	return ba.Touched() - before
}

// Profile is the per-thread, per-barrier-interval characterisation that
// feeds the SynTS solvers: instruction count, baseline CPI and the
// empirical error-probability function. Each sensitized delay is stored
// once, as a code into the window's table of distinct delays, which is
// all both consumers need: err(r) counts the delays above r * TCrit, and
// a Razor replay only asks whether each delay exceeds the clock (Cut).
type Profile struct {
	Thread   int
	Interval int
	N        int
	CPIBase  float64
	TCrit    float64
	// Levels holds the window's distinct sensitized delays in ascending
	// order, each with the number of instructions at or above it.
	Levels []Level
	// Codes holds each instruction's index into Levels in program order —
	// what a Razor pipeline replay (or the online sampling phase) consumes —
	// each in the fewest bytes the window's level count needs (see Codes).
	Codes Codes
	// Insts is the window the profile was built from (the stream's own
	// slice, not a copy), aligned with Codes, so replay sites can
	// attribute errors and cycles to the opcode that caused them (the
	// simprof profiler). The profile builders always set it, independent
	// of whether profiling is enabled, so profiles compare DeepEqual
	// either way; (*StageCircuit).Profile and NewProfile leave it nil.
	Insts []isa.Inst
}

// Level is one distinct sensitized delay of a window.
type Level struct {
	Delay   float64
	AtLeast int // instructions whose delay is >= Delay
}

// NewProfile compacts one window's per-instruction sensitized delays
// (program order) into a profile with N = len(delays); the caller fills
// in Thread, Interval, CPIBase and Insts. delays is not modified.
func NewProfile(tcrit float64, delays []float64) *Profile {
	var nb numbering
	nb.start(len(delays))
	for i, d := range delays {
		nb.add(i, d)
	}
	return nb.profile(tcrit)
}

// numbering compacts a window's delays as they arrive: it gives each
// distinct delay an id in order of first arrival and writes each
// instruction's id straight into the codes of the profile it will return,
// then renumbers the ids ascending by delay, which sorts only the distinct
// delays, not the whole window. The codes start one byte wide and widen
// when the 257th or the 65,537th distinct delay arrives, so they end at
// the width the window's level count needs and no wider buffer is kept.
// The event engine hands over a block's delays only after the held
// instructions interleaved with it, so delays arrive out of program order;
// that does not change the result, because an instruction's final code is
// the rank of its delay among the window's distinct delays and each
// level's count is the number of instructions with that delay. A slot
// keeps one, so a window's tables are not allocated anew.
type numbering struct {
	ids         map[float64]uint32 // delay -> first-arrival id
	vals        []float64          // per id: the delay
	counts      []int              // per id: instructions with that delay
	order, rank []uint32
	codes       Codes  // the window's codes, first-arrival ids until profile
	last        uint32 // id of the latest delay, so a run of equal delays costs no lookup
}

// start begins a window of n instructions.
func (nb *numbering) start(n int) {
	if nb.ids == nil {
		nb.ids = make(map[float64]uint32)
	}
	clear(nb.ids)
	nb.vals, nb.counts = nb.vals[:0], nb.counts[:0]
	nb.codes = Codes{b1: make([]uint8, n)}
}

// add numbers instruction i's delay d. Each instruction of the window is
// added exactly once, in any order.
func (nb *numbering) add(i int, d float64) {
	id := nb.last
	if len(nb.vals) == 0 || nb.vals[id] != d {
		var ok bool
		if id, ok = nb.ids[d]; !ok {
			id = uint32(len(nb.vals))
			nb.codes.widen(id)
			nb.ids[d] = id
			nb.vals = append(nb.vals, d)
			nb.counts = append(nb.counts, 0)
		}
		nb.last = id
	}
	nb.codes.set(i, id)
	nb.counts[id]++
}

// profile renumbers the window's codes by rank and returns its profile,
// which takes the codes.
func (nb *numbering) profile(tcrit float64) *Profile {
	vals, counts, codes := nb.vals, nb.counts, nb.codes
	nb.codes = Codes{}
	if uint64(len(vals)) > math.MaxUint32 {
		panic(fmt.Sprintf("trace: %d distinct delays overflow uint32 codes", len(vals)))
	}
	order := slices.Grow(nb.order[:0], len(vals))[:len(vals)] // first-arrival ids, ascending by delay
	for k := range order {
		order[k] = uint32(k)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(vals[a], vals[b]) })
	rank := slices.Grow(nb.rank[:0], len(vals))[:len(vals)]
	nb.order, nb.rank = order, rank
	levels := make([]Level, len(vals))
	atLeast := 0
	for k := len(order) - 1; k >= 0; k-- {
		id := order[k]
		rank[id] = uint32(k)
		atLeast += counts[id]
		levels[k] = Level{Delay: vals[id], AtLeast: atLeast}
	}
	codes.renumber(rank)
	return &Profile{N: codes.Len(), TCrit: tcrit, Levels: levels, Codes: codes}
}

// Cut returns the index of the first level whose delay exceeds limit: an
// instruction's delay is above limit exactly when its code is >= Cut(limit),
// so a replay at clock period limit compares codes against one cut hoisted
// out of its loop.
func (p *Profile) Cut(limit float64) uint32 {
	return uint32(sort.Search(len(p.Levels), func(k int) bool { return p.Levels[k].Delay > limit }))
}

// Err returns the empirical error probability at TSR r: the fraction of
// the interval's instructions whose sensitized delay exceeds r * TCrit.
// It is non-increasing in r and exactly 0 at r = 1.
func (p *Profile) Err(r float64) float64 {
	k := int(p.Cut(r * p.TCrit))
	if p.N == 0 || k == len(p.Levels) {
		return 0
	}
	return float64(p.Levels[k].AtLeast) / float64(p.N)
}

// CoreThread adapts the profile to the solver's Thread type.
func (p *Profile) CoreThread() core.Thread {
	return core.Thread{N: float64(p.N), CPIBase: p.CPIBase, Err: p.Err}
}

// BuildProfilesScopedCtx characterises every thread and barrier interval
// of a workload for one stage. The work fans out over a bounded worker
// pool (workers <= 0 means GOMAXPROCS) at (thread, interval) granularity:
// each interval's delay trace runs as an independent task on a fresh
// StageCircuit fast-forwarded to the interval's starting fetch PC, while
// each thread's CPI measurement stays one in-order task so its private
// cache (one core per thread) remains warm across intervals. Results are
// assembled by index, so the output is byte-identical to
// BuildProfilesSerial regardless of scheduling. The result is indexed
// [thread][interval]. Intervals not yet submitted when ctx is cancelled
// are skipped and ctx's error is returned.
//
// With a non-empty kernel name and the simprof profiler enabled, the build
// also attributes its simulated work to the profiler under that name:
// per-opcode gate-eval cycles at this stage (phase "issue") and per-opcode
// cache stall cycles (phase "mem"). Attribution never changes the
// returned profiles (TestProfilesUnchangedBySimprof).
func BuildProfilesScopedCtx(ctx context.Context, kernel string, streams []*workload.Stream, stage Stage, cacheCfg cpu.CacheConfig, workers int) ([][]*Profile, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("trace: no streams")
	}
	defer obs.StartRegion("trace.build_profiles:", stage.String()).End()
	out := make([][]*Profile, len(streams))
	cpis := make([][]float64, len(streams))
	for t, s := range streams {
		out[t] = make([]*Profile, len(s.Intervals))
		cpis[t] = make([]float64, len(s.Intervals))
	}
	g := pool.New(workers)
	for t, s := range streams {
		g.GoCtx(ctx, func() error {
			defer obs.StartRegion("trace.cpi_measure:", stage.String()).End()
			cache, err := cpu.NewCache(cacheCfg)
			if err != nil {
				return err
			}
			for ii, iv := range s.Intervals {
				res := cpu.MeasureCPIScoped(kernel, t, ii, stage.String(), iv, cache)
				cpis[t][ii] = res.CPI
				recordCacheCounters(res)
			}
			return nil
		})
		for ii := range s.Intervals {
			g.GoCtx(ctx, func() error {
				defer obs.StartRegion("trace.interval_build:", stage.String()).End()
				sc := NewStageCircuit(stage)
				seek := obs.StartRegion("trace.seek_pc")
				sc.SeekPC(s.Intervals[:ii])
				seek.End()
				iv := s.Intervals[ii]
				delay := obs.StartRegion("trace.delay_trace")
				p := sc.Profile(iv)
				delay.End()
				if kernel != "" && simprof.Enabled() {
					recordIssueAttr(kernel, t, ii, sc, iv)
				}
				p.Thread, p.Interval, p.Insts = t, ii, iv
				out[t][ii] = p
				return nil
			})
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	for t := range out {
		for ii := range out[t] {
			out[t][ii].CPIBase = cpis[t][ii]
		}
	}
	return out, nil
}

// recordIssueAttr attributes one interval's delay-trace work to simprof:
// each instruction that drives the stage costs one issue cycle, and its
// energy is the touched-gate count its vector demanded (the same
// accounting as the trace.gate_evals obs counter, but keyed per opcode).
// Touched counts come from the trace that just ran (sc.lastTouched) and
// are engine-independent, so simprof artefacts stay byte-identical
// whichever engine produced them.
func recordIssueAttr(kernel string, thread, interval int, sc *StageCircuit, iv []isa.Inst) {
	var counts [isa.NumOps]int64
	var work [isa.NumOps]int64
	touched := sc.lastTouched
	allGates := int64(len(sc.Netlist.Gates))
	for i, in := range iv {
		if !sc.Drives(in) {
			continue
		}
		counts[in.Op]++
		if touched != nil {
			work[in.Op] += touched[i]
		} else {
			work[in.Op] += allGates
		}
	}
	stage := sc.Stage.String()
	for op, n := range counts {
		if n == 0 {
			continue
		}
		simprof.Record(
			simprof.Key{Kernel: kernel, Core: thread, Interval: interval, Phase: simprof.PhaseIssue, Op: isa.Op(op).String(), Stage: stage},
			simprof.Values{Cycles: float64(n), Energy: float64(work[op]) * simprof.EnergyPerGateEvalPJ, Instrs: n},
		)
	}
}

// BuildProfilesSerial is the single-goroutine reference implementation:
// per thread, one circuit and one cache walk the intervals in order. The
// parallel path must reproduce it byte for byte (see the determinism tests
// and the -j documentation in cmd/synts).
func BuildProfilesSerial(streams []*workload.Stream, stage Stage, cacheCfg cpu.CacheConfig) ([][]*Profile, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("trace: no streams")
	}
	defer obs.StartRegion("trace.build_profiles:", stage.String()).End()
	out := make([][]*Profile, len(streams))
	for t, s := range streams {
		sc := NewStageCircuit(stage)
		cache, err := cpu.NewCache(cacheCfg)
		if err != nil {
			return nil, err
		}
		out[t] = make([]*Profile, len(s.Intervals))
		for ii, iv := range s.Intervals {
			p := sc.Profile(iv)
			res := cpu.MeasureCPI(iv, cache)
			recordCacheCounters(res)
			p.Thread, p.Interval, p.CPIBase, p.Insts = t, ii, res.CPI, iv
			out[t][ii] = p
		}
	}
	return out, nil
}

// recordCacheCounters surfaces one CPI measurement's cache outcome to the
// obs layer, reusing the counts MeasureCPI already collected so no second
// simulation pass is needed.
func recordCacheCounters(res cpu.CPIResult) {
	if !obs.Enabled() {
		return
	}
	obs.C("cpu.cache.accesses").Add(int64(res.Accesses))
	obs.C("cpu.cache.hits").Add(int64(res.Hits))
	obs.C("cpu.cache.misses").Add(int64(res.Misses))
}

// IntervalThreads transposes profiles to [interval][thread] and adapts them
// for the solvers, which work one barrier interval at a time (Eq. 4.2).
func IntervalThreads(profiles [][]*Profile) [][]core.Thread {
	if len(profiles) == 0 {
		return nil
	}
	nIv := len(profiles[0])
	out := make([][]core.Thread, nIv)
	for ii := 0; ii < nIv; ii++ {
		out[ii] = make([]core.Thread, len(profiles))
		for t := range profiles {
			out[ii][t] = profiles[t][ii].CoreThread()
		}
	}
	return out
}
