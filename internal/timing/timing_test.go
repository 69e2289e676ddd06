package timing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"synts/internal/gates"
	"synts/internal/netlist"
)

// chain builds an n-stage inverter chain.
func chain(n int) *netlist.Netlist {
	b := netlist.NewBuilder("chain")
	b.SetVariation(0) // exact library delays for closed-form assertions
	t := input(b, "a")
	for i := 0; i < n; i++ {
		t = b.Gate(gates.INV, t)
	}
	b.Output("y", t)
	return b.MustBuild()
}

func TestCriticalPathChain(t *testing.T) {
	n := chain(10)
	a := NewAnalyzer(n)
	want := 10 * gates.INV.Delay()
	if got := a.CriticalPath(); got != want {
		t.Fatalf("CriticalPath = %v, want %v", got, want)
	}
}

func TestCriticalPathSingleGate(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetVariation(0)
	x := input(b, "a")
	y := input(b, "b")
	b.Output("y", b.Gate(gates.NAND2, x, y))
	n := b.MustBuild()
	if got := NewAnalyzer(n).CriticalPath(); got != gates.NAND2.Delay() {
		t.Fatalf("CriticalPath = %v, want %v", got, gates.NAND2.Delay())
	}
}

func TestStepRequiresReset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Step before Reset did not panic")
		}
	}()
	NewAnalyzer(chain(1)).Step([]bool{true})
}

func TestLevelizedChainDelay(t *testing.T) {
	n := chain(5)
	a := NewAnalyzer(n)
	a.Reset([]bool{false})
	if got := a.Step([]bool{true}); got != 5*gates.INV.Delay() {
		t.Fatalf("toggle delay = %v, want %v", got, 5*gates.INV.Delay())
	}
	// No input change: no transitions, zero delay.
	if got := a.Step([]bool{true}); got != 0 {
		t.Fatalf("idle delay = %v, want 0", got)
	}
}

func TestLevelizedMaskedTransition(t *testing.T) {
	// y = AND(a, b) with b=0: toggling a never reaches the output.
	b := netlist.NewBuilder("mask")
	b.SetVariation(0)
	a := input(b, "a")
	x := input(b, "b")
	b.Output("y", b.Gate(gates.AND2, a, x))
	n := b.MustBuild()
	an := NewAnalyzer(n)
	an.Reset([]bool{false, false})
	if got := an.Step([]bool{true, false}); got != 0 {
		t.Fatalf("masked toggle delay = %v, want 0", got)
	}
	// Unmask: now the AND output rises.
	if got := an.Step([]bool{true, true}); got != gates.AND2.Delay() {
		t.Fatalf("unmasked delay = %v, want %v", got, gates.AND2.Delay())
	}
}

// adder8 returns an 8-bit ripple adder netlist with buses a, b and outputs.
func adder8() *netlist.Netlist {
	b := netlist.NewBuilder("add8")
	a := b.InputBusN("a", 8)
	x := b.InputBusN("b", 8)
	zero := b.Const(false)
	sum, cout := netlist.RippleAdder(b, a.Nets, x.Nets, zero)
	b.OutputBusN("s", sum)
	b.Output("cout", cout)
	return b.MustBuild()
}

func adderInputs(n *netlist.Netlist, a, x uint64) []bool {
	in := make([]bool, len(n.Inputs))
	n.SetBusUint(in, n.InputBus("a"), a)
	n.SetBusUint(in, n.InputBus("b"), x)
	return in
}

func TestCarryChainSensitization(t *testing.T) {
	// 0x00+0x00 -> 0xFF+0x01 propagates a carry through all 8 stages and
	// must sensitize a much longer path than 0x00 -> 0x01+0x00.
	n := adder8()
	an := NewAnalyzer(n)

	an.Reset(adderInputs(n, 0, 0))
	long := an.Step(adderInputs(n, 0xFF, 0x01))

	an.Reset(adderInputs(n, 0, 0))
	short := an.Step(adderInputs(n, 0x01, 0x00))

	if long <= short {
		t.Fatalf("full carry chain delay %v must exceed 1-bit delay %v", long, short)
	}
	crit := an.CriticalPath()
	if long > crit {
		t.Fatalf("sensitized delay %v exceeds critical path %v", long, crit)
	}
	if long < 0.5*crit {
		t.Fatalf("full carry chain delay %v should be a large fraction of critical path %v", long, crit)
	}
}

func TestEventSimGlitchExceedsLevelized(t *testing.T) {
	// y = XOR(a, INV(INV(INV(a)))): statically constant, but a transition on
	// a produces a glitch that settles 3 inverter delays + XOR later. The
	// levelized pass reports 0 (no final change); the event sim must not.
	b := netlist.NewBuilder("glitch")
	b.SetVariation(0)
	a := input(b, "a")
	inv := b.Gate(gates.INV, b.Gate(gates.INV, b.Gate(gates.INV, a)))
	b.Output("y", b.Gate(gates.XOR2, a, inv))
	n := b.MustBuild()

	lv := NewAnalyzer(n)
	lv.Reset([]bool{false})
	if got := lv.Step([]bool{true}); got != 0 {
		t.Fatalf("levelized glitch delay = %v, want 0 (no final transition)", got)
	}

	ev := NewEventSim(n)
	ev.Reset([]bool{false})
	got := ev.Step([]bool{true})
	want := 3*gates.INV.Delay() + gates.XOR2.Delay()
	if got != want {
		t.Fatalf("event-driven glitch settle = %v, want %v", got, want)
	}
}

// EventSim keeps its event queue between steps: once a step has grown it,
// stepping SimpleALU back and forth between two vectors allocates nothing
// (a fresh queue per step took 20 allocations per pair).
func TestEventSimStepAllocationFree(t *testing.T) {
	n := netlist.NewSimpleALU(32)
	rng := rand.New(rand.NewSource(5))
	a, b := make([]bool, len(n.Inputs)), make([]bool, len(n.Inputs))
	for i := range a {
		a[i], b[i] = rng.Intn(2) == 1, rng.Intn(2) == 1
	}
	ev := NewEventSim(n)
	ev.Reset(a)
	want := ev.Step(b)
	if allocs := testing.AllocsPerRun(20, func() {
		ev.Step(a)
		if got := ev.Step(b); got != want {
			t.Fatalf("repeated step settles at %v, first at %v", got, want)
		}
	}); allocs != 0 {
		t.Errorf("EventSim.Step allocates %v times per pair of steps, want 0", allocs)
	}
}

func TestEventSimMatchesLevelizedOnGlitchFreeChain(t *testing.T) {
	n := chain(7)
	lv, ev := NewAnalyzer(n), NewEventSim(n)
	lv.Reset([]bool{false})
	ev.Reset([]bool{false})
	for _, v := range []bool{true, false, true, true, false} {
		dl := lv.Step([]bool{v})
		de := ev.Step([]bool{v})
		if dl != de {
			t.Fatalf("chain: levelized %v != event %v", dl, de)
		}
	}
}

// Property: on the 8-bit adder, for random vector pairs, both delay models
// are bounded by the STA critical path, both are non-negative, and the two
// simulators agree on final functional values. (Neither model dominates the
// other pointwise: the levelized pass misses glitches but also conservatively
// uses the latest changed input even when an earlier one already fixed the
// output value.)
func TestDelayOrderingProperty(t *testing.T) {
	n := adder8()
	crit := NewAnalyzer(n).CriticalPath()
	f := func(a0, b0, a1, b1 uint8) bool {
		lv, ev := NewAnalyzer(n), NewEventSim(n)
		in0 := adderInputs(n, uint64(a0), uint64(b0))
		in1 := adderInputs(n, uint64(a1), uint64(b1))
		lv.Reset(in0)
		ev.Reset(in0)
		dl := lv.Step(in1)
		de := ev.Step(in1)
		if dl < 0 || de < 0 || dl > crit+1e-9 || de > crit+1e-9 {
			return false
		}
		// Functional agreement: both engines settle every bit of s, and s
		// holds a1+b1.
		var sum uint8
		for i, net := range n.OutputBus("s").Nets {
			if lv.vals[net] != ev.vals[net] {
				return false
			}
			if lv.vals[net] {
				sum |= 1 << i
			}
		}
		return sum == a1+b1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzerValuesMatchEval(t *testing.T) {
	n := adder8()
	an := NewAnalyzer(n)
	rng := rand.New(rand.NewSource(42))
	in := adderInputs(n, 0, 0)
	an.Reset(in)
	ref := make([]bool, n.NumNets())
	for i := 0; i < 50; i++ {
		in = adderInputs(n, uint64(rng.Intn(256)), uint64(rng.Intn(256)))
		an.Step(in)
		ref = n.Eval(in, ref)
		for t2 := 0; t2 < n.NumNets(); t2++ {
			if an.vals[t2] != ref[t2] {
				t.Fatalf("step %d: net %d: analyzer %v, eval %v", i, t2, an.vals[t2], ref[t2])
			}
		}
	}
}

func TestMultiplierSensitizedBelowCritical(t *testing.T) {
	n := netlist.NewMultiplier(16)
	an := NewAnalyzer(n)
	crit := an.CriticalPath()
	if crit <= 0 {
		t.Fatal("critical path must be positive")
	}
	rng := rand.New(rand.NewSource(7))
	mkIn := func(a, b uint64) []bool {
		in := make([]bool, len(n.Inputs))
		n.SetBusUint(in, n.InputBus("a"), a)
		n.SetBusUint(in, n.InputBus("b"), b)
		return in
	}
	an.Reset(mkIn(0, 0))
	maxd := 0.0
	for i := 0; i < 300; i++ {
		d := an.Step(mkIn(uint64(rng.Uint32()&0xFFFF), uint64(rng.Uint32()&0xFFFF)))
		if d > crit+1e-9 {
			t.Fatalf("sensitized delay %v exceeds critical path %v", d, crit)
		}
		if d > maxd {
			maxd = d
		}
	}
	if maxd == 0 {
		t.Fatal("random multiplier vectors must sensitize some path")
	}
	if maxd >= crit {
		t.Errorf("random vectors should not reach the exact critical path (got %v of %v)", maxd, crit)
	}
}

// input declares a single-bit primary input and returns its net.
func input(b *netlist.Builder, name string) netlist.Net { return b.InputBusN(name, 1).Nets[0] }
