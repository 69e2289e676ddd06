package trace

import "math"

// Codes holds one window's level codes in program order, each in the
// fewest bytes that hold the window's largest code, len(Levels)-1: one
// byte for at most 256 levels, two for at most 65,536, four beyond. The
// width depends only on how many distinct delays the window has, so two
// builds of a window compare DeepEqual whatever order its delays arrived
// in. Exactly one of the slices is non-nil in a built profile (the
// one-byte slice for an empty window); readers go through Len, At and
// Slice, and compare At(i) against a Cut at full width.
type Codes struct {
	b1 []uint8
	b2 []uint16
	b4 []uint32
}

// Len returns the number of codes.
func (c Codes) Len() int { return len(c.b1) + len(c.b2) + len(c.b4) }

// At returns the code of instruction i.
func (c Codes) At(i int) uint32 {
	if c.b1 != nil {
		return uint32(c.b1[i])
	}
	if c.b2 != nil {
		return uint32(c.b2[i])
	}
	return c.b4[i]
}

// Slice returns the codes of instructions [lo, hi), sharing c's storage.
func (c Codes) Slice(lo, hi int) Codes {
	if c.b1 != nil {
		return Codes{b1: c.b1[lo:hi]}
	}
	if c.b2 != nil {
		return Codes{b2: c.b2[lo:hi]}
	}
	return Codes{b4: c.b4[lo:hi]}
}

// set stores code v for instruction i; v must fit the current width.
func (c Codes) set(i int, v uint32) {
	if c.b1 != nil {
		c.b1[i] = uint8(v)
	} else if c.b2 != nil {
		c.b2[i] = uint16(v)
	} else {
		c.b4[i] = v
	}
}

// widen makes c wide enough to hold code v, copying the codes held so far
// into the wider slice.
func (c *Codes) widen(v uint32) {
	if c.b1 != nil && v > math.MaxUint8 {
		c.b2 = make([]uint16, len(c.b1))
		for i, x := range c.b1 {
			c.b2[i] = uint16(x)
		}
		c.b1 = nil
	}
	if c.b2 != nil && v > math.MaxUint16 {
		c.b4 = make([]uint32, len(c.b2))
		for i, x := range c.b2 {
			c.b4[i] = uint32(x)
		}
		c.b2 = nil
	}
}

// renumber replaces every code x with rank[x], which must fit the width.
func (c Codes) renumber(rank []uint32) {
	for i, x := range c.b1 {
		c.b1[i] = uint8(rank[x])
	}
	for i, x := range c.b2 {
		c.b2[i] = uint16(rank[x])
	}
	for i, x := range c.b4 {
		c.b4[i] = rank[x]
	}
}
