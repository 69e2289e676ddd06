package timing

import (
	"math/rand"
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
	dir := b.Input("dir")
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
					got := be.Word(netlist.Net(tn))>>uint(j)&1 == 1
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
	a := b.Input("a")
	x := b.Input("b")
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
