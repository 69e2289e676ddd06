// Package netlist represents gate-level combinational netlists and provides
// structural generators for the three pipe-stage circuits the thesis
// analyses: Decode, SimpleALU and ComplexALU.
//
// The paper synthesises the Illinois Verilog Model of an Alpha pipeline with
// Synopsys Design Compiler to obtain these netlists. We substitute
// hand-structured generators built from the gates package cell library; the
// circuits implement the same arithmetic (so functional behaviour can be
// verified against Go integer semantics) and exhibit the property the whole
// thesis rests on: the critical path (e.g. the full 32-bit carry chain) is
// rarely sensitised by real operand streams.
package netlist

import (
	"fmt"
	"math/rand"

	"synts/internal/gates"
)

// Net identifies a signal node within a single netlist.
type Net int32

// Gate is one library-cell instance. In holds NumInputs() valid entries.
// Delay is the instance's propagation delay: the library's nominal cell
// delay scaled by this instance's process-variation factor (die-to-die and
// random variation are why timing errors exist in the first place — §1.1).
type Gate struct {
	Kind  gates.Kind
	In    [3]Net
	Out   Net
	Delay float64
}

// Bus is a named, ordered group of nets (bit 0 first).
type Bus struct {
	Name string
	Nets []Net
}

// Netlist is an immutable combinational netlist. Gates are stored in
// topological order (guaranteed by Builder), so a single forward pass
// evaluates the circuit.
type Netlist struct {
	Name    string
	Gates   []Gate
	Inputs  []Net // primary inputs in declaration order
	Outputs []Net // primary outputs in declaration order

	InputBuses  []Bus
	OutputBuses []Bus

	numNets  int
	driver   []int32 // net -> index into Gates, or -1 for a primary input
	inputPos []int32 // net -> position in Inputs, or -1 for internal nets
}

// NumNets returns the total number of signal nodes.
func (n *Netlist) NumNets() int { return n.numNets }

// Driver returns the index of the gate driving net t, or -1 if t is a
// primary input.
func (n *Netlist) Driver(t Net) int { return int(n.driver[t]) }

// Area returns the total combinational cell area in INV units.
func (n *Netlist) Area() float64 {
	var a float64
	for _, g := range n.Gates {
		a += g.Kind.Area()
	}
	return a
}

// InputBus returns the input bus with the given name, or panics: the bus
// names of a generated stage are part of its contract.
func (n *Netlist) InputBus(name string) Bus {
	for _, b := range n.InputBuses {
		if b.Name == name {
			return b
		}
	}
	panic(fmt.Sprintf("netlist %s: no input bus %q", n.Name, name))
}

// OutputBus returns the output bus with the given name, or panics.
func (n *Netlist) OutputBus(name string) Bus {
	for _, b := range n.OutputBuses {
		if b.Name == name {
			return b
		}
	}
	panic(fmt.Sprintf("netlist %s: no output bus %q", n.Name, name))
}

// Eval evaluates the netlist for the given primary input assignment.
// vals must either be nil or have length NumNets(); it is (re)used as the
// value store and returned, indexed by Net. Input values are read from in,
// which must match len(Inputs).
func (n *Netlist) Eval(in []bool, vals []bool) []bool {
	if len(in) != len(n.Inputs) {
		panic(fmt.Sprintf("netlist %s: Eval got %d inputs, want %d", n.Name, len(in), len(n.Inputs)))
	}
	if vals == nil || len(vals) != n.numNets {
		vals = make([]bool, n.numNets)
	}
	for i, t := range n.Inputs {
		vals[t] = in[i]
	}
	var pins [3]bool
	for _, g := range n.Gates {
		k := g.Kind.NumInputs()
		for i := 0; i < k; i++ {
			pins[i] = vals[g.In[i]]
		}
		vals[g.Out] = g.Kind.Eval(pins[:k])
	}
	return vals
}

// SetBusUint writes the low len(bus.Nets) bits of v into in (a primary-input
// value slice indexed like Inputs) for the given input bus.
func (n *Netlist) SetBusUint(in []bool, bus Bus, v uint64) {
	for i, t := range bus.Nets {
		in[n.inputPos[t]] = v&(1<<uint(i)) != 0
	}
}

// Builder constructs a Netlist. Nets can only be created by Input/InputBusN
// or as gate outputs, so every net has exactly one driver and the gate list
// is topologically ordered by construction.
type Builder struct {
	n        Netlist
	varRng   *rand.Rand
	varSigma float64
}

// NewBuilder returns an empty builder for a netlist with the given name.
// Gate instances receive per-instance process-variation delay factors drawn
// deterministically from the netlist name, with a default sigma of 6%
// (use SetVariation to change or disable).
func NewBuilder(name string) *Builder {
	seed := int64(1)
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	return &Builder{
		n:        Netlist{Name: name},
		varRng:   rand.New(rand.NewSource(seed)),
		varSigma: 0.06,
	}
}

// SetVariation sets the per-gate delay variation sigma (0 disables it,
// giving every instance the nominal library delay). Call before adding
// gates.
func (b *Builder) SetVariation(sigma float64) {
	if sigma < 0 {
		panic("netlist: negative variation sigma")
	}
	b.varSigma = sigma
}

// instanceDelay draws this instance's delay from the library nominal.
func (b *Builder) instanceDelay(k gates.Kind) float64 {
	d := k.Delay()
	if d == 0 || b.varSigma == 0 {
		return d
	}
	f := 1 + b.varSigma*b.varRng.NormFloat64()
	// Clip to a plausible fast/slow corner range.
	if f < 0.8 {
		f = 0.8
	}
	if f > 1.35 {
		f = 1.35
	}
	return d * f
}

func (b *Builder) newNet() Net {
	t := Net(b.n.numNets)
	b.n.numNets++
	b.n.driver = append(b.n.driver, -1)
	return t
}

// InputBusN declares a width-bit primary input bus (bit 0 first).
func (b *Builder) InputBusN(name string, width int) Bus {
	bus := Bus{Name: name, Nets: make([]Net, width)}
	for i := range bus.Nets {
		t := b.newNet()
		b.n.Inputs = append(b.n.Inputs, t)
		bus.Nets[i] = t
	}
	b.n.InputBuses = append(b.n.InputBuses, bus)
	return bus
}

// Gate instantiates a cell with the given inputs and returns its output net.
// The inputs must be nets already created by this builder.
func (b *Builder) Gate(k gates.Kind, in ...Net) Net {
	if len(in) != k.NumInputs() {
		panic(fmt.Sprintf("netlist %s: %s takes %d inputs, got %d", b.n.Name, k, k.NumInputs(), len(in)))
	}
	out := b.newNet()
	g := Gate{Kind: k, Out: out, Delay: b.instanceDelay(k)}
	for i, t := range in {
		if t < 0 || int(t) >= b.n.numNets-1 {
			panic(fmt.Sprintf("netlist %s: %s input %d references unknown net %d", b.n.Name, k, i, t))
		}
		g.In[i] = t
	}
	b.n.driver[out] = int32(len(b.n.Gates))
	b.n.Gates = append(b.n.Gates, g)
	return out
}

// Const returns a constant-0 or constant-1 net (a tie cell).
func (b *Builder) Const(v bool) Net {
	if v {
		return b.Gate(gates.CONST1)
	}
	return b.Gate(gates.CONST0)
}

// Output declares a single-bit primary output.
func (b *Builder) Output(name string, t Net) {
	b.OutputBusN(name, []Net{t})
}

// OutputBusN declares a multi-bit primary output bus (bit 0 first).
func (b *Builder) OutputBusN(name string, nets []Net) {
	for i, t := range nets {
		if t < 0 || int(t) >= b.n.numNets {
			panic(fmt.Sprintf("netlist %s: output %s[%d] references unknown net %d", b.n.Name, name, i, t))
		}
	}
	b.n.OutputBuses = append(b.n.OutputBuses, Bus{Name: name, Nets: append([]Net(nil), nets...)})
	b.n.Outputs = append(b.n.Outputs, nets...)
}

// Build finalizes and validates the netlist. After Build the builder must
// not be reused.
func (b *Builder) Build() (*Netlist, error) {
	if len(b.n.Inputs) == 0 {
		return nil, fmt.Errorf("netlist %s: no primary inputs", b.n.Name)
	}
	if len(b.n.Outputs) == 0 {
		return nil, fmt.Errorf("netlist %s: no primary outputs", b.n.Name)
	}
	// Every non-input net must be driven by exactly one gate (guaranteed by
	// construction); verify the invariant anyway so corruption is caught.
	driven := make([]bool, b.n.numNets)
	for i, t := range b.n.Inputs {
		if driven[t] {
			return nil, fmt.Errorf("netlist %s: input %d re-declared", b.n.Name, i)
		}
		driven[t] = true
	}
	for gi, g := range b.n.Gates {
		if driven[g.Out] {
			return nil, fmt.Errorf("netlist %s: net %d driven twice (gate %d)", b.n.Name, g.Out, gi)
		}
		driven[g.Out] = true
	}
	for t := 0; t < b.n.numNets; t++ {
		if !driven[t] {
			return nil, fmt.Errorf("netlist %s: net %d has no driver", b.n.Name, t)
		}
	}
	b.n.indexInputs()
	out := b.n
	b.n = Netlist{} // poison further use
	return &out, nil
}

// indexInputs fills inputPos, the net -> input-position map SetBusUint
// packs vectors through.
func (n *Netlist) indexInputs() {
	n.inputPos = make([]int32, n.numNets)
	for i := range n.inputPos {
		n.inputPos[i] = -1
	}
	for i, t := range n.Inputs {
		n.inputPos[t] = int32(i)
	}
}

// MustBuild is Build but panics on error; for the static stage generators
// whose correctness is covered by tests.
func (b *Builder) MustBuild() *Netlist {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
