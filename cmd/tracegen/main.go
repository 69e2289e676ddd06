// Command tracegen dumps a benchmark's dynamic instruction streams — the
// artefact the architectural half of the methodology produces — as text or
// summary statistics, for inspection and for feeding external tools.
//
// Usage:
//
//	tracegen -bench radix -summary
//	tracegen -bench fmm -thread 0 -interval 1 -n 50
package main

import (
	"flag"
	"fmt"
	"os"

	"synts/internal/isa"
	"synts/internal/workload"
)

func main() {
	bench := flag.String("bench", "radix", "benchmark name")
	threads := flag.Int("threads", 4, "thread count")
	size := flag.Int("size", 2, "workload size knob")
	seed := flag.Int64("seed", 2016, "workload data seed")
	thread := flag.Int("thread", 0, "thread to dump")
	interval := flag.Int("interval", 0, "barrier interval to dump")
	n := flag.Int("n", 30, "instructions to dump (0 = all)")
	summary := flag.Bool("summary", false, "print per-thread per-interval summary only")
	out := flag.String("o", "", "save the streams to this file (gzip'd gob) instead of printing")
	load := flag.String("load", "", "load streams from a file saved with -o instead of running the kernel")
	flag.Parse()

	var streams []*workload.Stream
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		name, loaded, err := workload.LoadStreams(f)
		if err != nil {
			fatal(err)
		}
		*bench = name
		streams = loaded
	} else {
		k, err := workload.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		streams = workload.RunKernel(k, *threads, *size, *seed)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := workload.SaveStreams(f, *bench, streams); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %d threads of %s to %s\n", len(streams), *bench, *out)
		return
	}

	if *summary {
		fmt.Printf("%s: %d threads, %d barrier intervals\n", *bench, len(streams), len(streams[0].Intervals))
		for _, s := range streams {
			fmt.Printf("thread %d:", s.Thread)
			for _, iv := range s.Intervals {
				mix := opMix(iv)
				fmt.Printf("  [%d instr, %.0f%% simple, %.0f%% mul, %.0f%% mem]",
					len(iv), 100*mix[0], 100*mix[1], 100*mix[2])
			}
			fmt.Println()
		}
		return
	}

	if *thread < 0 || *thread >= len(streams) {
		fatal(fmt.Errorf("thread %d out of range", *thread))
	}
	s := streams[*thread]
	if *interval < 0 || *interval >= len(s.Intervals) {
		fatal(fmt.Errorf("interval %d out of range (thread has %d)", *interval, len(s.Intervals)))
	}
	iv := s.Intervals[*interval]
	limit := len(iv)
	if *n > 0 && *n < limit {
		limit = *n
	}
	for i := 0; i < limit; i++ {
		in := iv[i]
		c := in.C
		if in.Op.IFormat() {
			c = 0 // C holds the immediate, printed as imm
		}
		fmt.Printf("%6d  %-5s rd=%-2d rs=%-2d rt=%-2d imm=%04x  a=%08x b=%08x c=%08x addr=%08x -> %08x\n",
			i, in.Op, in.Rd, in.Rs, in.Rt, in.Imm(), in.A, in.B, c, in.Addr(), in.Result())
	}
	if limit < len(iv) {
		fmt.Printf("... %d more\n", len(iv)-limit)
	}
}

func opMix(iv []isa.Inst) [3]float64 {
	var counts [3]int
	for _, in := range iv {
		switch in.Op.Class() {
		case isa.ClassSimple, isa.ClassBranch:
			counts[0]++
		case isa.ClassComplex:
			counts[1]++
		case isa.ClassMem:
			counts[2]++
		}
	}
	var out [3]float64
	if len(iv) == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(len(iv))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
