package timing

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"synts/internal/gates"
	"synts/internal/netlist"
)

// barrel32 builds a standalone 32-bit barrel-shifter netlist (the shifter is
// a sub-block of the SimpleALU; here it is characterised on its own like the
// adder-architecture netlists).
func barrel32() *netlist.Netlist {
	b := netlist.NewBuilder("barrel32")
	a := b.InputBusN("a", 32)
	sh := b.InputBusN("sh", 5)
	dir := input(b, "dir")
	b.OutputBusN("y", netlist.BarrelShifter(b, a.Nets, sh.Nets, dir))
	return b.MustBuild()
}

// engineFamilies is every netlist family the repo generates: the three
// adder architectures, both ALU pipe stages, the Decode stage, and the
// standalone multiplier, divider and barrel shifter.
func engineFamilies() map[string]*netlist.Netlist {
	return map[string]*netlist.Netlist{
		"adder-ripple":      netlist.NewAdderNetlist(netlist.AdderRipple, 32),
		"adder-kogge-stone": netlist.NewAdderNetlist(netlist.AdderKoggeStone, 32),
		"adder-brent-kung":  netlist.NewAdderNetlist(netlist.AdderBrentKung, 32),
		"decode":            netlist.NewDecode(),
		"simplealu":         netlist.NewSimpleALU(32),
		"complexalu":        netlist.NewComplexALU(16),
		"multiplier":        netlist.NewMultiplier(16),
		"divider":           netlist.NewDivider(16),
		"barrel-shifter":    barrel32(),
	}
}

// mutate flips each input bit with probability 1/p, leaving runs of held
// bits so the block engine sees realistic partial-toggle vectors.
func mutate(rng *rand.Rand, in []bool, p int) {
	for i := range in {
		if rng.Intn(p) == 0 {
			in[i] = !in[i]
		}
	}
}

// The core equivalence property, on every netlist family: the levelized
// Analyzer and the bit-parallel BlockAnalyzer produce bit-identical float64
// delays and identical touched-gate counts for the same vector stream.
// Blocks are fed at deliberately ragged sizes (1..64) so block-boundary
// carry of the previous settled state is exercised.
func TestEngineEquivalenceAcrossFamilies(t *testing.T) {
	for name, n := range engineFamilies() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2016))
			nIn := len(n.Inputs)
			const steps = 150

			// Vector stream: start at zero, mutate a few bits per step,
			// with occasional dense flips and exact repeats (held vectors).
			vecs := make([][]bool, steps+1)
			cur := make([]bool, nIn)
			vecs[0] = append([]bool(nil), cur...)
			for i := 1; i <= steps; i++ {
				switch rng.Intn(10) {
				case 0: // held vector: all engines must report delay 0
				case 1:
					mutate(rng, cur, 2) // dense flip
				default:
					mutate(rng, cur, 16) // sparse flip
				}
				vecs[i] = append([]bool(nil), cur...)
			}

			lv := NewAnalyzer(n)
			ba := NewBlockAnalyzer(n)
			lv.Reset(vecs[0])
			ba.Reset(vecs[0])

			wantDelay := make([]float64, steps)
			wantTouch := make([]int64, steps)
			prevTouched := lv.Touched()
			for i := 0; i < steps; i++ {
				wantDelay[i] = lv.Step(vecs[i+1])
				wantTouch[i] = lv.Touched() - prevTouched
				prevTouched = lv.Touched()
			}

			// Feed the same stream to the block engine in ragged blocks.
			inWords := make([]uint64, nIn)
			delays := make([]float64, 64)
			touched := make([]int64, 64)
			next := 1
			step := 0
			for next <= steps {
				k := 1 + rng.Intn(64)
				if next+k > steps+1 {
					k = steps + 1 - next
				}
				for i := range inWords {
					inWords[i] = 0
				}
				for j := 0; j < k; j++ {
					for i, v := range vecs[next+j] {
						if v {
							inWords[i] |= 1 << uint(j)
						}
					}
				}
				ba.StepBlock(inWords, k, delays, touched)
				for j := 0; j < k; j++ {
					if delays[j] != wantDelay[step] {
						t.Fatalf("step %d (block lane %d): BlockAnalyzer delay %v, Analyzer %v",
							step, j, delays[j], wantDelay[step])
					}
					if touched[j] != wantTouch[step] {
						t.Fatalf("step %d: BlockAnalyzer touched %d, Analyzer %d",
							step, touched[j], wantTouch[step])
					}
					step++
				}
				next += k
			}
			if ba.Touched() != lv.Touched() {
				t.Fatalf("BlockAnalyzer touched %d, Analyzer %d", ba.Touched(), lv.Touched())
			}
		})
	}
}

// BitEval on its own must agree with Netlist.Eval on every net, lane by
// lane, for a full 64-vector block on each family.
func TestBitEvalMatchesEval(t *testing.T) {
	for name, n := range engineFamilies() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			nIn := len(n.Inputs)
			inWords := make([]uint64, nIn)
			vecs := make([][]bool, 64)
			cur := make([]bool, nIn)
			for j := 0; j < 64; j++ {
				mutate(rng, cur, 4)
				vecs[j] = append([]bool(nil), cur...)
				for i, v := range cur {
					if v {
						inWords[i] |= 1 << uint(j)
					}
				}
			}
			be := NewBitEval(n)
			be.EvalBlock(inWords)
			ref := make([]bool, n.NumNets())
			for j := 0; j < 64; j++ {
				ref = n.Eval(vecs[j], ref)
				for tn := 0; tn < n.NumNets(); tn++ {
					got := be.words[tn]>>uint(j)&1 == 1
					if got != ref[tn] {
						t.Fatalf("lane %d net %d: BitEval %v, Eval %v", j, tn, got, ref[tn])
					}
				}
			}
		})
	}
}

// The block engine must panic on StepBlock before Reset, like the
// levelized analyzer does.
func TestIncrementalEnginesRequireReset(t *testing.T) {
	n := netlist.NewAdderNetlist(netlist.AdderRipple, 8)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s before Reset did not panic", name)
			}
		}()
		f()
	}
	mustPanic("BlockAnalyzer.StepBlock", func() {
		NewBlockAnalyzer(n).StepBlock(make([]uint64, len(n.Inputs)), 1, make([]float64, 1), nil)
	})
}

// A single-gate sanity check with closed-form expectations: the block
// engine reports the exact library delay for an unmasked transition and 0
// for a masked one, mirroring TestLevelizedMaskedTransition.
func TestIncrementalMaskedTransition(t *testing.T) {
	b := netlist.NewBuilder("mask")
	b.SetVariation(0)
	a := input(b, "a")
	x := input(b, "b")
	b.Output("y", b.Gate(gates.AND2, a, x))
	n := b.MustBuild()

	ba := NewBlockAnalyzer(n)
	ba.Reset([]bool{false, false})
	delays := make([]float64, 2)
	// Lanes: j=0 masked toggle (a=1,b=0), j=1 unmasked (a=1,b=1).
	ba.StepBlock([]uint64{0b11, 0b10}, 2, delays, nil)
	if delays[0] != 0 {
		t.Fatalf("block masked toggle delay = %v, want 0", delays[0])
	}
	if delays[1] != gates.AND2.Delay() {
		t.Fatalf("block unmasked delay = %v, want %v", delays[1], gates.AND2.Delay())
	}
}

// Arrival rows are shared only by nets whose lifetimes are disjoint: on
// every family (whose decode and simplealu are the 32-bit stage circuits),
// the 32-bit ComplexALU, and 40 random netlists, some of which read one
// net on two pins of a gate. A net lives from its driving gate to its last
// reader (to its driver if nothing reads it).
func TestArrivalRowsShareOnlyDisjointLifetimes(t *testing.T) {
	nets := engineFamilies()
	nets["complexalu32"] = netlist.NewComplexALU(32)
	rng := rand.New(rand.NewSource(2016))
	twoPins := 0
	for i := 0; i < 40; i++ {
		n := randomNetlist(rng, 2+rng.Intn(6), 10+rng.Intn(60))
		if slices.ContainsFunc(n.Gates, readsOneNetTwice) {
			twoPins++
		}
		nets[fmt.Sprintf("random%02d", i)] = n
	}
	if twoPins == 0 {
		t.Fatal("no random netlist reads one net on two pins of a gate")
	}
	for name, n := range nets {
		ba := NewBlockAnalyzer(n)
		row, rows := ba.row, len(ba.arr)/64
		for _, in := range n.Inputs {
			if row[in] != 0 {
				t.Fatalf("%s: primary input %d on row %d, want 0", name, in, row[in])
			}
		}
		end := make([]int, n.NumNets()) // per gate output: its last reader
		for gi, g := range n.Gates {
			end[g.Out] = gi
			for _, in := range g.In[:g.Kind.NumInputs()] {
				end[in] = gi
			}
		}
		onRow := make([][]int, rows) // per row: the gates writing it, in order
		for gi, g := range n.Gates {
			r := row[g.Out]
			if r <= 0 || int(r) >= rows {
				t.Fatalf("%s: gate %d output on row %d of %d", name, gi, r, rows)
			}
			for _, in := range g.In[:g.Kind.NumInputs()] {
				if row[in] == r {
					t.Fatalf("%s: gate %d writes row %d, which its input %d holds", name, gi, r, in)
				}
			}
			onRow[r] = append(onRow[r], gi)
		}
		for r, gs := range onRow {
			for i := 1; i < len(gs); i++ {
				if prev := n.Gates[gs[i-1]].Out; end[prev] >= gs[i] {
					t.Fatalf("%s: row %d holds net %d over gates %d..%d and net %d from gate %d",
						name, r, prev, gs[i-1], end[prev], n.Gates[gs[i]].Out, gs[i])
				}
			}
		}
		if name == "complexalu32" {
			t.Logf("%s: %d rows for %d nets", name, rows, n.NumNets())
			if rows > 512 {
				t.Errorf("%s: %d arrival rows, want at most 512", name, rows)
			}
		}
	}
}

// readsOneNetTwice reports whether g reads one net on two of its pins.
func readsOneNetTwice(g netlist.Gate) bool {
	in := g.In[:g.Kind.NumInputs()]
	for i := range in {
		if slices.Contains(in[i+1:], in[i]) {
			return true
		}
	}
	return false
}

// NewBlockAnalyzer holds arrival lanes for live nets only: on the 32-bit
// ComplexALU, where a row per net took 4.08 MB, it allocates at most 1 MB.
// Not parallel: it reads the process-wide allocation count.
func TestBlockAnalyzerScratchBound(t *testing.T) {
	n := netlist.NewComplexALU(32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ba := NewBlockAnalyzer(n)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ba)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewBlockAnalyzer(ComplexALU 32) allocated %d bytes", got)
	if got > 1<<20 {
		t.Errorf("NewBlockAnalyzer(ComplexALU 32) allocated %d bytes, want at most 1 MiB", got)
	}
}
