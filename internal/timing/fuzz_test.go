package timing

import (
	"math/rand"
	"testing"

	"synts/internal/gates"
	"synts/internal/netlist"
)

// randomNetlist builds a random combinational DAG: nIn primary inputs, nG
// gates whose inputs are drawn from already-created nets, and a handful of
// randomly chosen outputs. Because the builder only allows references to
// existing nets, any random choice is a valid topologically-ordered
// circuit — ideal fuzz fodder.
func randomNetlist(rng *rand.Rand, nIn, nG int) *netlist.Netlist {
	b := netlist.NewBuilder("fuzz")
	nets := make([]netlist.Net, 0, nIn+nG)
	in := b.InputBusN("in", nIn)
	nets = append(nets, in.Nets...)
	kinds := []gates.Kind{
		gates.BUF, gates.INV, gates.AND2, gates.OR2, gates.NAND2, gates.NOR2,
		gates.XOR2, gates.XNOR2, gates.NAND3, gates.NOR3, gates.AND3,
		gates.OR3, gates.MUX2, gates.AOI21, gates.OAI21,
	}
	for g := 0; g < nG; g++ {
		k := kinds[rng.Intn(len(kinds))]
		args := make([]netlist.Net, k.NumInputs())
		for i := range args {
			args[i] = nets[rng.Intn(len(nets))]
		}
		nets = append(nets, b.Gate(k, args...))
	}
	// Outputs: bias toward late nets so paths are deep.
	nOut := 1 + rng.Intn(4)
	outs := make([]netlist.Net, nOut)
	for i := range outs {
		outs[i] = nets[len(nets)-1-rng.Intn(len(nets)/2)]
	}
	b.OutputBusN("out", outs)
	return b.MustBuild()
}

// The cross-validation invariants, on 40 random circuits x 30 vectors:
//   - levelized analyzer values == functional Eval values == event-driven
//     final values (three independent evaluators agree),
//   - both delay models stay within [0, STA critical path],
//   - an unchanged input vector produces delay 0 in both models.
func TestRandomNetlistCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 40; trial++ {
		nIn := 2 + rng.Intn(6)
		n := randomNetlist(rng, nIn, 10+rng.Intn(60))
		crit := NewAnalyzer(n).CriticalPath()
		lv := NewAnalyzer(n)
		ev := NewEventSim(n)
		ref := make([]bool, n.NumNets())

		in := make([]bool, nIn)
		lv.Reset(in)
		ev.Reset(in)
		for step := 0; step < 30; step++ {
			for i := range in {
				if rng.Intn(3) == 0 {
					in[i] = !in[i]
				}
			}
			dl := lv.Step(in)
			de := ev.Step(in)
			if dl < 0 || dl > crit+1e-9 {
				t.Fatalf("trial %d step %d: levelized delay %v outside [0, %v]", trial, step, dl, crit)
			}
			if de < 0 || de > crit+1e-9 {
				t.Fatalf("trial %d step %d: event delay %v outside [0, %v]", trial, step, de, crit)
			}
			ref = n.Eval(in, ref)
			for net := 0; net < n.NumNets(); net++ {
				if lv.Values()[net] != ref[net] {
					t.Fatalf("trial %d step %d: levelized net %d = %v, Eval says %v",
						trial, step, net, lv.Values()[net], ref[net])
				}
				if ev.Values()[net] != ref[net] {
					t.Fatalf("trial %d step %d: event net %d = %v, Eval says %v",
						trial, step, net, ev.Values()[net], ref[net])
				}
			}
		}
		// Idle vector: both models must report 0.
		if dl := lv.Step(in); dl != 0 {
			t.Fatalf("trial %d: idle levelized delay %v", trial, dl)
		}
		if de := ev.Step(in); de != 0 {
			t.Fatalf("trial %d: idle event delay %v", trial, de)
		}
	}
}

// FuzzStepEquivalence is the differential fuzzer for the two levelized-
// model engines: on a random netlist (derived from seed and nGates) driven
// by a vector stream (derived from stream bytes — each byte's low bits
// toggle the corresponding primary inputs), the levelized Analyzer and the
// bit-parallel BlockAnalyzer must produce bit-identical delays and
// touched-gate counts.
// CI runs it for a short budget on every push; the seed corpus is checked
// in under testdata/fuzz.
func FuzzStepEquivalence(f *testing.F) {
	f.Add(int64(2016), uint8(40), []byte{0x01, 0x03, 0x00, 0x07, 0x1F, 0x02, 0x02, 0x3F})
	f.Add(int64(7), uint8(120), []byte("synergistic timing speculation"))
	f.Add(int64(-1), uint8(1), []byte{0xFF})
	f.Fuzz(func(t *testing.T, seed int64, nGates uint8, stream []byte) {
		rng := rand.New(rand.NewSource(seed))
		nIn := 2 + rng.Intn(6)
		n := randomNetlist(rng, nIn, 5+int(nGates))
		if len(stream) > 128 {
			stream = stream[:128]
		}

		lv := NewAnalyzer(n)
		ba := NewBlockAnalyzer(n)
		in := make([]bool, nIn)
		lv.Reset(in)
		ba.Reset(in)

		// Walk the stream once with the levelized reference, recording the
		// delays and per-step touched counts.
		wantDelay := make([]float64, len(stream))
		wantTouch := make([]int64, len(stream))
		vecs := make([][]bool, len(stream))
		prev := lv.Touched()
		for s, c := range stream {
			for i := 0; i < nIn; i++ {
				if c&(1<<uint(i)) != 0 {
					in[i] = !in[i]
				}
			}
			vecs[s] = append([]bool(nil), in...)
			wantDelay[s] = lv.Step(in)
			wantTouch[s] = lv.Touched() - prev
			prev = lv.Touched()
		}

		// Replay through the block engine in ragged blocks; block size is
		// itself fuzz-derived so boundaries land everywhere.
		blockSize := 1 + int(nGates)%64
		inWords := make([]uint64, nIn)
		delays := make([]float64, 64)
		touched := make([]int64, 64)
		for start := 0; start < len(vecs); start += blockSize {
			k := blockSize
			if start+k > len(vecs) {
				k = len(vecs) - start
			}
			for i := range inWords {
				inWords[i] = 0
			}
			for j := 0; j < k; j++ {
				for i, v := range vecs[start+j] {
					if v {
						inWords[i] |= 1 << uint(j)
					}
				}
			}
			ba.StepBlock(inWords, k, delays, touched)
			for j := 0; j < k; j++ {
				if delays[j] != wantDelay[start+j] {
					t.Fatalf("step %d: BlockAnalyzer delay %v, Analyzer %v",
						start+j, delays[j], wantDelay[start+j])
				}
				if touched[j] != wantTouch[start+j] {
					t.Fatalf("step %d: BlockAnalyzer touched %d, Analyzer %d",
						start+j, touched[j], wantTouch[start+j])
				}
			}
		}
		if ba.Touched() != lv.Touched() {
			t.Fatalf("touched totals diverged: levelized %d, block %d", lv.Touched(), ba.Touched())
		}
	})
}

// STA on a random circuit must upper-bound the settle time of an
// exhaustive toggle of every single input (the classic one-hot transition
// sweep used to spot missed paths).
func TestRandomNetlistSTABoundsOneHotSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		nIn := 3 + rng.Intn(5)
		n := randomNetlist(rng, nIn, 20+rng.Intn(40))
		crit := NewAnalyzer(n).CriticalPath()
		ev := NewEventSim(n)
		in := make([]bool, nIn)
		ev.Reset(in)
		for bit := 0; bit < nIn; bit++ {
			in[bit] = !in[bit]
			if d := ev.Step(in); d > crit+1e-9 {
				t.Fatalf("trial %d: one-hot toggle of input %d settles at %v > STA %v", trial, bit, d, crit)
			}
		}
	}
}
