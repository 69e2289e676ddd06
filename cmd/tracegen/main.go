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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"synts/internal/isa"
	"synts/internal/tracefile"
	"synts/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams: it returns
// 0 on success, 1 on a failure and 2 on a usage error, which it reports
// before any kernel runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "radix", "benchmark name")
	threads := fs.Int("threads", 4, "thread count")
	size := fs.Int("size", 2, "workload size knob")
	seed := fs.Int64("seed", 2016, "workload data seed")
	thread := fs.Int("thread", 0, "thread to dump")
	interval := fs.Int("interval", 0, "barrier interval to dump")
	n := fs.Int("n", 30, "instructions to dump (0 = all)")
	summary := fs.Bool("summary", false, "print per-thread per-interval summary only")
	out := fs.String("o", "", "save the streams to this file (gzip'd gob) instead of printing")
	load := fs.String("load", "", "load streams from a file saved with -o instead of running the kernel")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(stderr, "tracegen: -threads %d: need at least 1 thread\n", *threads)
		return 2
	}
	if *size < 1 {
		fmt.Fprintf(stderr, "tracegen: -size %d: need a size of at least 1\n", *size)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}

	var streams []*workload.Stream
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		name, loaded, err := tracefile.LoadStreams(f)
		if err != nil {
			return fail(err)
		}
		*bench = name
		streams = loaded
	} else {
		k, err := workload.ByName(*bench)
		if err != nil {
			return fail(err)
		}
		streams = workload.RunKernel(k, *threads, *size, *seed)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		if err := tracefile.SaveStreams(f, *bench, streams); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "saved %d threads of %s to %s\n", len(streams), *bench, *out)
		return 0
	}

	if *summary {
		fmt.Fprintf(stdout, "%s: %d threads, %d barrier intervals\n", *bench, len(streams), len(streams[0].Intervals))
		for _, s := range streams {
			fmt.Fprintf(stdout, "thread %d:", s.Thread)
			for _, iv := range s.Intervals {
				mix := opMix(iv)
				fmt.Fprintf(stdout, "  [%d instr, %.0f%% simple, %.0f%% mul, %.0f%% mem]",
					len(iv), 100*mix[0], 100*mix[1], 100*mix[2])
			}
			fmt.Fprintln(stdout)
		}
		return 0
	}

	if *thread < 0 || *thread >= len(streams) {
		return fail(fmt.Errorf("thread %d out of range", *thread))
	}
	s := streams[*thread]
	if *interval < 0 || *interval >= len(s.Intervals) {
		return fail(fmt.Errorf("interval %d out of range (thread has %d)", *interval, len(s.Intervals)))
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
		fmt.Fprintf(stdout, "%6d  %-5s rd=%-2d rs=%-2d rt=%-2d imm=%04x  a=%08x b=%08x c=%08x addr=%08x -> %08x\n",
			i, in.Op, in.Rd, in.Rs, in.Rt, in.Imm(), in.A, in.B, c, in.Addr(), in.Result())
	}
	if limit < len(iv) {
		fmt.Fprintf(stdout, "... %d more\n", len(iv)-limit)
	}
	return 0
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
