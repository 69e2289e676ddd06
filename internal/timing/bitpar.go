package timing

import (
	"math"
	"math/bits"

	"synts/internal/netlist"
)

// BitEval is the bit-parallel logic evaluator: it evaluates up to 64
// independent input vectors in one pass over the netlist by packing each
// net's 64 values into a single uint64 lane-word and computing every gate
// with the bitwise ops of gates.Kind.EvalWord. One pass therefore costs
// len(Gates) word operations for 64 vectors — the per-vector evaluation
// cost drops by ~64x versus Netlist.Eval.
//
// Not safe for concurrent use; create one per goroutine.
type BitEval struct {
	n     *netlist.Netlist
	words []uint64 // per net: bit j = net value for vector j
}

// NewBitEval returns a bit-parallel evaluator for the netlist.
func NewBitEval(n *netlist.Netlist) *BitEval {
	return &BitEval{n: n, words: make([]uint64, n.NumNets())}
}

// EvalBlock evaluates the packed vector block: inWords[i] holds primary
// input i's 64 lanes (bit j = input i's value in vector j). After the call,
// Word(t) bit j is net t's settled value for vector j. Lanes beyond the
// caller's vector count carry garbage in, garbage out.
func (e *BitEval) EvalBlock(inWords []uint64) {
	n := e.n
	if len(inWords) != len(n.Inputs) {
		panic("timing: EvalBlock input word count mismatch")
	}
	for i, t := range n.Inputs {
		e.words[t] = inWords[i]
	}
	w := e.words
	for gi := range n.Gates {
		g := &n.Gates[gi]
		// Unused operand slots hold net 0; EvalWord ignores them.
		w[g.Out] = g.Kind.EvalWord(w[g.In[0]], w[g.In[1]], w[g.In[2]])
	}
}

// BlockAnalyzer composes the two fast engines: a BitEval pass computes the
// settled value of every net for a block of up to 64 consecutive vectors,
// turning each net's activity into a 64-bit toggle mask, and a single
// levelized arrival sweep then visits each gate once per block, doing
// float work only for the lanes in which the gate's output actually
// toggles (iterated with TrailingZeros64). Work is therefore proportional
// to the number of (gate, vector) transitions in the block — the
// event-driven property — while the per-gate skeleton cost is amortized
// over 64 vectors and the visit order stays the exact topological order
// of the levelized reference.
//
// Bit-exactness contract: StepBlock returns, vector for vector, the same
// float64 delays as Analyzer.Step, and Touched reports the same count.
// Per lane, a toggling gate's arrival is max over its toggling inputs'
// arrivals plus the gate delay — the identical float expression, in the
// identical pin and gate order, as the levelized pass (which assigns an
// arrival to exactly the nets that change value). The value stream is
// identical because EvalWord implements the same truth tables as Eval and
// the levelized pass leaves every net at its functional value after each
// step.
//
// Not safe for concurrent use; create one per goroutine.
type BlockAnalyzer struct {
	n    *netlist.Netlist
	be   *BitEval
	tog  []uint64 // per net: bit j = net toggles between vectors j-1 and j
	last []bool   // per net: settled value after the most recent vector
	// arr holds arrival lanes as math.Float64bits words in rows of 64:
	// net t's lane j is arr[row[t]*64+j], valid where t's toggle bit j is
	// set. Arrivals are always non-negative, and IEEE doubles >= 0 order
	// identically to their bit patterns as uint64s — so the per-lane max
	// runs in the integer domain, where "exclude a non-toggling input" is
	// a branch-free AND with an all-zeros mask (+0.0) instead of an
	// unpredictable branch.
	arr     []uint64
	row     []int32 // per net: its arrival row; see arrivalRows
	numIn   []uint8 // per gate: operand count (avoids a Kind lookup per gate)
	outSet  []bool
	inited  bool
	touched int64
}

// NewBlockAnalyzer returns a block analyzer for the netlist.
func NewBlockAnalyzer(n *netlist.Netlist) *BlockAnalyzer {
	row, rows := arrivalRows(n)
	s := &BlockAnalyzer{
		n:      n,
		be:     NewBitEval(n),
		tog:    make([]uint64, n.NumNets()),
		last:   make([]bool, n.NumNets()),
		arr:    make([]uint64, rows*64),
		row:    row,
		numIn:  make([]uint8, len(n.Gates)),
		outSet: make([]bool, n.NumNets()),
	}
	for gi := range n.Gates {
		s.numIn[gi] = uint8(n.Gates[gi].Kind.NumInputs())
	}
	for _, t := range n.Outputs {
		s.outSet[t] = true
	}
	return s
}

// arrivalRows gives each gate output a row of 64 arrival lanes for its
// lifetime only, from its driving gate to its last reader in gate order,
// and returns the per-net row table and the number of rows. Walking the
// gates in order, a gate's output takes a free row (or a new one) before
// the gate's inputs whose last reader it is return theirs, so a gate
// never writes a row it reads; an output no gate reads returns its row at
// once, its arrival having reached the delays when its own gate ran.
// Primary inputs, and any net no gate drives, share row 0, which nothing
// writes: it stays +0.0, the arrival of an input transition.
//
// Sharing is exact because arr is scratch within one block. A gate writes
// exactly the lanes in which its output toggles, and a reader loads a
// lane unmasked only where that input toggled — a lane its driver wrote
// earlier in the same block, while the row was still the driver's. Every
// other load is masked to +0.0 whatever the row holds.
func arrivalRows(n *netlist.Netlist) (row []int32, rows int) {
	lastRead := make([]int32, n.NumNets()) // per net: last reading gate, or -1
	for t := range lastRead {
		lastRead[t] = -1
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		for _, t := range g.In[:g.Kind.NumInputs()] {
			lastRead[t] = int32(gi)
		}
	}
	row = make([]int32, n.NumNets())
	rows = 1
	var free []int32
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if k := len(free); k > 0 {
			row[g.Out] = free[k-1]
			free = free[:k-1]
		} else {
			row[g.Out] = int32(rows)
			rows++
		}
		if lastRead[g.Out] < 0 {
			free = append(free, row[g.Out])
		}
		for _, t := range g.In[:g.Kind.NumInputs()] {
			// Primary inputs hold row 0 for good; a net read on two pins
			// returns its row once.
			if lastRead[t] == int32(gi) && row[t] != 0 {
				free = append(free, row[t])
				lastRead[t] = -1
			}
		}
	}
	return row, rows
}

// Netlist returns the netlist under analysis.
func (s *BlockAnalyzer) Netlist() *netlist.Netlist { return s.n }

// Reset establishes the initial input state without measuring a delay.
func (s *BlockAnalyzer) Reset(in []bool) {
	s.last = s.n.Eval(in, s.last)
	s.inited = true
	s.touched += int64(len(s.n.Gates))
}

// Touched returns the cumulative gate-evaluation count; see Analyzer.Touched.
func (s *BlockAnalyzer) Touched() int64 { return s.touched }

// StepBlock applies the next k (1..64) input vectors, packed into inWords
// (inWords[i] bit j = primary input i's value in vector j), and fills
// delays[0:k] with each vector's sensitized delay. If touched is non-nil,
// touched[0:k] receives the number of gates each vector's sweep touched
// (gates with at least one toggling input). Reset must have been called
// first.
func (s *BlockAnalyzer) StepBlock(inWords []uint64, k int, delays []float64, touched []int64) {
	if !s.inited {
		panic("timing: StepBlock before Reset")
	}
	if k < 1 || k > 64 {
		panic("timing: StepBlock vector count out of [1,64]")
	}
	n := s.n

	// Engine (a): one bit-parallel pass settles all k vectors at once.
	s.be.EvalBlock(inWords)

	// Toggle masks: bit j set iff the net's value differs between vector
	// j and vector j-1 (vector -1 being the pre-block settled state).
	// Lanes >= k hold garbage; kmask confines the sweep to real lanes.
	kmask := ^uint64(0) >> uint(64-k)
	w := s.be.words
	for t := 0; t < n.NumNets(); t++ {
		prev := uint64(0)
		if s.last[t] {
			prev = 1
		}
		s.tog[t] = w[t] ^ ((w[t] << 1) | prev)
		s.last[t] = w[t]>>(uint(k)-1)&1 == 1
	}

	for j := 0; j < k; j++ {
		delays[j] = 0
		if touched != nil {
			touched[j] = 0
		}
	}

	// Engine (b): one levelized sweep; per gate, arrival work only on the
	// lanes whose output toggles. The per-lane body is branch-free up to
	// the rare primary-output update: input rows and toggle words are
	// hoisted out of the lane loop, a non-toggling input's (stale) lane is
	// loaded unconditionally and masked to +0.0 — safe because whenever
	// the output toggles some input toggled, so the true max is >= 0 and
	// a zeroed loser can never win — and the max tree compares uint64 bit
	// patterns. The common 2- and 3-input shapes are specialised.
	tog, arr, row := s.tog, s.arr, s.row
	gs := n.Gates
	for gi := range gs {
		g := &gs[gi]
		in0 := int(g.In[0])
		in1 := int(g.In[1])
		w0, w1 := tog[in0], tog[in1]
		kIn := int(s.numIn[gi])
		var inAny uint64
		switch kIn {
		case 1:
			inAny = w0
		case 2:
			inAny = w0 | w1
		case 3:
			inAny = w0 | w1 | tog[g.In[2]]
		}
		inAny &= kmask
		if inAny == 0 {
			continue // no input moved in any lane: untouched
		}
		s.touched += int64(bits.OnesCount64(inAny))
		if touched != nil {
			for m := inAny; m != 0; m &= m - 1 {
				touched[bits.TrailingZeros64(m)]++
			}
		}
		m := tog[g.Out] & kmask
		if m == 0 {
			continue // inputs moved but the output value held in every lane
		}
		b0, b1, bo := int(row[in0])*64, int(row[in1])*64, int(row[g.Out])*64
		r0 := arr[b0 : b0+64 : b0+64]
		r1 := arr[b1 : b1+64 : b1+64]
		ro := arr[bo : bo+64 : bo+64]
		gd := g.Delay
		isOut := s.outSet[g.Out]
		switch kIn {
		case 2:
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				t0 := r0[j] & -(w0 >> uint(j) & 1)
				t1 := r1[j] & -(w1 >> uint(j) & 1)
				worst := t0
				if t1 > worst {
					worst = t1
				}
				t := math.Float64frombits(worst) + gd
				ro[j] = math.Float64bits(t)
				if isOut && t > delays[j] {
					delays[j] = t
				}
			}
		case 3:
			in2 := int(g.In[2])
			w2 := tog[in2]
			b2 := int(row[in2]) * 64
			r2 := arr[b2 : b2+64 : b2+64]
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				t0 := r0[j] & -(w0 >> uint(j) & 1)
				t1 := r1[j] & -(w1 >> uint(j) & 1)
				t2 := r2[j] & -(w2 >> uint(j) & 1)
				worst := t0
				if t1 > worst {
					worst = t1
				}
				if t2 > worst {
					worst = t2
				}
				t := math.Float64frombits(worst) + gd
				ro[j] = math.Float64bits(t)
				if isOut && t > delays[j] {
					delays[j] = t
				}
			}
		default: // 1-input gates: the only (toggling) input is the arrival
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				t := math.Float64frombits(r0[j]) + gd
				ro[j] = math.Float64bits(t)
				if isOut && t > delays[j] {
					delays[j] = t
				}
			}
		}
	}
}
