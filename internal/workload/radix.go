package workload

import "math/rand"

// Radix: parallel radix sort, the thesis' flagship heterogeneous benchmark
// (Fig 3.5 shows its thread 0 with ~4x the error probability of its
// siblings). Each thread owns a contiguous chunk of the key array; the
// input is range-partitioned (as after a sampling pre-pass), so thread 0
// holds the large-magnitude keys. Wide keys propagate long carry chains in
// the histogram/rank arithmetic, which is precisely what makes thread 0
// timing-speculation critical.
//
// Each digit pass has three barrier-separated phases: local histogram,
// global prefix scan, and permutation.

func init() {
	register(Kernel{
		Name:          "radix",
		Description:   "parallel radix sort, range-partitioned keys (heterogeneous magnitudes)",
		Heterogeneous: true,
		Make:          makeRadix,
	})
}

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	// synthetic address-space bases for the cache model
	radixKeysBase uint32 = 0x1000_0000
	radixHistBase uint32 = 0x1100_0000
	radixDstBase  uint32 = 0x1200_0000
)

func makeRadix(threads, size int, seed int64) func(tc *TC) {
	n := 192 * size // keys per thread
	rng := rand.New(rand.NewSource(seed))
	// Range-partitioned keys: thread t's chunk spans magnitudes that shrink
	// with t. Thread 0: up to 2^31; last thread: up to 2^10.
	keys := make([][]uint32, threads)
	for t := 0; t < threads; t++ {
		bits := 31 - t*21/max(threads-1, 1) // 31 down to 10
		keys[t] = make([]uint32, n)
		for i := range keys[t] {
			keys[t][i] = uint32(rng.Int63()) & (1<<uint(bits) - 1)
		}
	}
	// Shared per-pass histograms (written pre-barrier, read post-barrier).
	hists := make([][]uint32, threads)
	for t := range hists {
		hists[t] = make([]uint32, radixBuckets)
	}
	passes := 2

	return func(tc *TC) {
		t := tc.ID()
		my := keys[t]
		for pass := 0; pass < passes; pass++ {
			shift := uint32(pass * radixBits)
			// Phase 1: local histogram (plus the running key checksum the
			// SPLASH-2 original maintains for verification — wide-operand
			// adds whose carry activity tracks the chunk's key magnitudes).
			hist := hists[t]
			for b := range hist {
				hist[b] = 0
			}
			var checksum uint32
			tc.Loop(len(my), func(i int) {
				addr := tc.Add(radixKeysBase+uint32(t)*0x40000, uint32(i*4))
				tc.Load(addr)
				checksum = tc.Add(checksum, my[i])
				if tc.Slt(my[i], checksum) == 1 {
					tc.Nop() // overflow bookkeeping branch shadow
				}
				d := tc.Shr(my[i], shift)
				d = tc.And(d, radixBuckets-1)
				tc.Load(radixHistBase + uint32(t)*0x1000 + d*4)
				hist[d] = tc.Add(hist[d], 1)
				tc.Store(radixHistBase + uint32(t)*0x1000 + d*4)
			})
			tc.Barrier()

			// Phase 2: global prefix scan. Every thread computes the global
			// bucket offsets it needs (reading every thread's histogram, as
			// the SPLASH-2 code does).
			offsets := make([]uint32, radixBuckets)
			var running uint32
			tc.Loop(radixBuckets, func(b int) {
				var total uint32
				for ot := 0; ot < tc.NumThreads(); ot++ {
					tc.Load(radixHistBase + uint32(ot)*0x1000 + uint32(b*4))
					if ot < t { // my keys land after lower threads' keys
						total = tc.Add(total, hists[ot][b])
					} else {
						tc.Add(total, hists[ot][b])
					}
				}
				offsets[b] = tc.Add(running, total)
				for ot := 0; ot < tc.NumThreads(); ot++ {
					running += hists[ot][b]
				}
				running = tc.Add(0, running)
			})
			tc.Barrier()

			// Phase 3: permutation into the destination array.
			sorted := make([]uint32, len(my))
			ranks := make([]uint32, radixBuckets)
			tc.Loop(len(my), func(i int) {
				k := my[i]
				d := tc.And(tc.Shr(k, shift), radixBuckets-1)
				dst := tc.Add(offsets[d], ranks[d])
				ranks[d] = tc.AddI(ranks[d], 1)
				tc.Store(radixDstBase + dst*4)
				sorted[int(ranks[d]-1)%len(my)] = k
			})
			// Locally re-sort the chunk by the digit so the next pass sees
			// realistic post-permutation data.
			stableByDigit(my, shift)
			tc.Barrier()
		}
	}
}

// stableByDigit performs the stable counting-sort permutation of a chunk in
// plain Go (the data movement the Store stream above represents).
func stableByDigit(keys []uint32, shift uint32) {
	var count [radixBuckets]int
	for _, k := range keys {
		count[k>>shift&(radixBuckets-1)]++
	}
	pos := make([]int, radixBuckets)
	s := 0
	for b := 0; b < radixBuckets; b++ {
		pos[b] = s
		s += count[b]
	}
	out := make([]uint32, len(keys))
	for _, k := range keys {
		b := k >> shift & (radixBuckets - 1)
		out[pos[b]] = k
		pos[b]++
	}
	copy(keys, out)
}
