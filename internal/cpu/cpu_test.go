package cpu

import (
	"testing"

	"synts/internal/isa"
)

func TestCacheConfigValidate(t *testing.T) {
	if err := DefaultL1().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []CacheConfig{
		{Lines: 0, LineBytes: 64},
		{Lines: 3, LineBytes: 64},
		{Lines: 8, LineBytes: 0},
		{Lines: 8, LineBytes: 48},
		{Lines: 8, LineBytes: 64, MissPenalty: -1},
		{Lines: 8, LineBytes: 64, Ways: 3},
		{Lines: 8, LineBytes: 64, Ways: 16},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := NewCache(CacheConfig{Lines: 4, LineBytes: 16, MissPenalty: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x100) {
		t.Error("cold access must miss")
	}
	if !c.Access(0x100) {
		t.Error("repeat access must hit")
	}
	if !c.Access(0x10F) {
		t.Error("same-line access must hit")
	}
	if c.Access(0x110) {
		t.Error("next line must miss")
	}
	// 4 lines x 16B: 0x100 and 0x140 conflict (same index).
	c.Access(0x140)
	if c.Access(0x100) {
		t.Error("conflicting line must have evicted 0x100")
	}
}

func TestTwoWayToleratesConflict(t *testing.T) {
	// 4 lines, 2 ways -> 2 sets. Two addresses mapping to the same set
	// coexist; a third evicts the least recently used.
	c, err := NewCache(CacheConfig{Lines: 4, LineBytes: 16, Ways: 2, MissPenalty: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x000) // set 0
	c.Access(0x020) // set 0, other way
	if !c.Access(0x000) || !c.Access(0x020) {
		t.Fatal("both lines must coexist in a 2-way set")
	}
	c.Access(0x040) // set 0, third line: evicts LRU (0x000)
	// Probe the survivors first: a missing probe refills and evicts.
	if !c.Access(0x020) {
		t.Error("0x020 was more recently used and must survive")
	}
	if !c.Access(0x040) {
		t.Error("0x040 was just inserted and must be resident")
	}
	if c.Access(0x000) {
		t.Error("0x000 should have been evicted as LRU")
	}
}

func TestLRUOrderingWithinSet(t *testing.T) {
	c, _ := NewCache(CacheConfig{Lines: 8, LineBytes: 16, Ways: 4, MissPenalty: 10})
	// Fill a set with 4 lines, touch the first again, insert a fifth:
	// the second line is now LRU and must be the victim.
	addrs := []uint32{0x000, 0x020, 0x040, 0x060}
	for _, a := range addrs {
		c.Access(a)
	}
	c.Access(0x000)
	c.Access(0x080) // evicts 0x020
	// Probe the survivors first (a missing probe would refill and evict).
	for _, a := range []uint32{0x000, 0x040, 0x060, 0x080} {
		if !c.Access(a) {
			t.Errorf("%#x must still be resident", a)
		}
	}
	if c.Access(0x020) {
		t.Error("0x020 must have been evicted")
	}
}

func TestAssociativityReducesConflictMisses(t *testing.T) {
	// A ping-pong between two conflicting lines: the direct-mapped cache
	// misses every time, the 2-way cache only twice.
	run := func(ways int) int {
		c, err := NewCache(CacheConfig{Lines: 8, LineBytes: 16, Ways: ways, MissPenalty: 10})
		if err != nil {
			t.Fatal(err)
		}
		misses := 0
		for i := 0; i < 20; i++ {
			var addr uint32 = 0x000
			if i%2 == 1 {
				addr = 0x100 * uint32(8/ways) // same set in both organisations
			}
			if !c.Access(addr) {
				misses++
			}
		}
		return misses
	}
	dm := run(1)
	twoWay := run(2)
	if twoWay >= dm {
		t.Errorf("2-way misses %d must be below direct-mapped %d", twoWay, dm)
	}
	if twoWay != 2 {
		t.Errorf("2-way ping-pong should miss exactly twice, got %d", twoWay)
	}
}

func TestCacheFlush(t *testing.T) {
	c, _ := NewCache(CacheConfig{Lines: 4, LineBytes: 16, MissPenalty: 10})
	c.Access(0x100)
	c.Flush()
	if c.Access(0x100) {
		t.Error("post-flush access must miss")
	}
}

func TestMeasureCPI(t *testing.T) {
	c, _ := NewCache(CacheConfig{Lines: 4, LineBytes: 16, MissPenalty: 10})
	iv := []isa.Inst{
		{Op: isa.ADD},
		{Op: isa.LD, A: 0x100},
		{Op: isa.LD, A: 0x100}, // hit
		{Op: isa.ST, A: 0x200}, // miss
		{Op: isa.MUL},
	}
	res := MeasureCPI(iv, c)
	if res.Instructions != 5 || res.Accesses != 3 || res.Misses != 2 {
		t.Fatalf("got %+v", res)
	}
	want := 1 + float64(2*10)/5
	if res.CPI != want {
		t.Fatalf("CPI = %v, want %v", res.CPI, want)
	}
}

func TestMeasureCPIEmptyWindow(t *testing.T) {
	c, _ := NewCache(DefaultL1())
	res := MeasureCPI(nil, c)
	if res.CPI != 1 {
		t.Fatalf("empty window CPI = %v, want 1", res.CPI)
	}
}

func TestMeasureCPIPersistsWarmth(t *testing.T) {
	c, _ := NewCache(DefaultL1())
	iv := []isa.Inst{{Op: isa.LD, A: 0x1000}}
	first := MeasureCPI(iv, c)
	second := MeasureCPI(iv, c)
	if first.Misses != 1 || second.Misses != 0 {
		t.Fatalf("warmth not persisted: %d then %d misses", first.Misses, second.Misses)
	}
}

func TestMeasureCPIHitMissCounts(t *testing.T) {
	c, _ := NewCache(DefaultL1())
	iv := []isa.Inst{
		{Op: isa.LD, A: 0x1000},
		{Op: isa.LD, A: 0x1004}, // same line: hit
		{Op: isa.ADD},           // non-memory: no access
		{Op: isa.ST, A: 0x2000},
	}
	res := MeasureCPI(iv, c)
	if res.Accesses != 3 || res.Hits != 1 || res.Misses != 2 {
		t.Fatalf("accesses/hits/misses = %d/%d/%d, want 3/1/2", res.Accesses, res.Hits, res.Misses)
	}
	if res.Hits+res.Misses != res.Accesses {
		t.Fatal("hit and miss counts must partition the accesses")
	}
}
