// Package cpu models the micro-architectural context around the analysed
// pipe stages: a private direct-mapped L1 data cache per core whose misses
// determine each thread's error-free CPI (CPI_base in Eq. 4.1), and a
// barrier-arrival model used to reproduce the workload-imbalance figures.
//
// This substitutes the gem5 4-core Alpha model of the paper: the paper
// consumes only per-thread instruction counts and baseline CPIs from its
// architectural simulation, both of which this package produces from the
// workload package's instruction streams.
package cpu

import (
	"fmt"

	"synts/internal/isa"
	"synts/internal/simprof"
)

// CacheConfig describes a set-associative cache with LRU replacement.
// Ways = 1 gives the direct-mapped organisation.
type CacheConfig struct {
	Lines       int // total number of lines (power of two)
	LineBytes   int // line size in bytes (power of two)
	Ways        int // associativity (power of two, divides Lines); 0 means 1
	MissPenalty int // extra cycles per miss
}

// DefaultL1 returns a 32 KiB 2-way L1 with a 20-cycle miss penalty.
func DefaultL1() CacheConfig {
	return CacheConfig{Lines: 512, LineBytes: 64, Ways: 2, MissPenalty: 20}
}

func (c CacheConfig) ways() int {
	if c.Ways == 0 {
		return 1
	}
	return c.Ways
}

// Validate reports whether the configuration is usable.
func (c CacheConfig) Validate() error {
	if c.Lines <= 0 || c.Lines&(c.Lines-1) != 0 {
		return fmt.Errorf("cpu: Lines %d must be a positive power of two", c.Lines)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cpu: LineBytes %d must be a positive power of two", c.LineBytes)
	}
	w := c.ways()
	if w <= 0 || w&(w-1) != 0 || w > c.Lines {
		return fmt.Errorf("cpu: Ways %d must be a power of two no larger than Lines %d", w, c.Lines)
	}
	if c.MissPenalty < 0 {
		return fmt.Errorf("cpu: negative MissPenalty")
	}
	return nil
}

// Cache holds valid/tag/LRU state only (data values live in the workload's
// Go structures).
type Cache struct {
	cfg   CacheConfig
	ways  int
	tags  []uint32 // sets x ways
	valid []bool
	age   []uint64 // LRU timestamps
	clock uint64

	lineShift uint
	setMask   uint32
	setShift  uint
}

// NewCache returns an empty cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ways := cfg.ways()
	sets := cfg.Lines / ways
	c := &Cache{
		cfg:   cfg,
		ways:  ways,
		tags:  make([]uint32, cfg.Lines),
		valid: make([]bool, cfg.Lines),
		age:   make([]uint64, cfg.Lines),
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.setMask = uint32(sets - 1)
	for s := sets; s > 1; s >>= 1 {
		c.setShift++
	}
	return c, nil
}

// Access looks up (and on miss, fills) the line holding addr, returning
// true on hit. Replacement within a set is least-recently-used.
func (c *Cache) Access(addr uint32) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.setShift
	c.clock++
	base := set * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim = i
		} else if c.valid[victim] && c.age[i] < c.age[victim] {
			victim = i
		}
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.age[victim] = c.clock
	return false
}

// CPIResult reports the baseline (error-free) CPI of an instruction window
// together with the cache outcome that produced it, so observability
// counters (obs "cpu.cache.*") can be fed from the same simulation pass
// instead of replaying the window.
type CPIResult struct {
	Instructions int
	Accesses     int
	Hits         int
	Misses       int
	CPI          float64
}

// MeasureCPI replays an instruction window through the cache and returns
// the error-free CPI: one cycle per instruction plus the stall cycles of
// data-cache misses. The cache persists across calls, so per-interval
// CPIs reflect warm-up exactly as a continuous execution would.
func MeasureCPI(iv []isa.Inst, c *Cache) CPIResult {
	return MeasureCPIScoped("", 0, 0, "", iv, c)
}

// MeasureCPIScoped is MeasureCPI with simprof attribution: per-opcode
// cache-miss stall cycles land in phase "mem" under the given kernel,
// core, interval and pipe-stage key. With kernel == "" or the profiler
// disabled it is exactly MeasureCPI — the returned result never depends
// on attribution.
func MeasureCPIScoped(kernel string, coreID, interval int, stage string, iv []isa.Inst, c *Cache) CPIResult {
	attr := kernel != "" && simprof.Enabled()
	var accesses, misses [isa.NumOps]int64
	res := CPIResult{Instructions: len(iv)}
	for _, in := range iv {
		if in.Op.Class() != isa.ClassMem {
			continue
		}
		res.Accesses++
		if c.Access(in.Addr()) {
			res.Hits++
		} else {
			res.Misses++
			if attr {
				misses[in.Op]++
			}
		}
		if attr {
			accesses[in.Op]++
		}
	}
	if attr {
		penalty := float64(c.cfg.MissPenalty)
		for op, n := range accesses {
			if n == 0 {
				continue
			}
			stall := float64(misses[op]) * penalty
			simprof.Record(
				simprof.Key{Kernel: kernel, Core: coreID, Interval: interval, Phase: simprof.PhaseMem, Op: isa.Op(op).String(), Stage: stage},
				simprof.Values{Cycles: stall, Energy: stall * simprof.EnergyPerStallCyclePJ, Instrs: n},
			)
		}
	}
	if res.Instructions == 0 {
		res.CPI = 1
		return res
	}
	stall := res.Misses * c.cfg.MissPenalty
	res.CPI = 1 + float64(stall)/float64(res.Instructions)
	return res
}
