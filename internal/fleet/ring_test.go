package fleet

import (
	"fmt"
	"testing"
)

func testBackends(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://127.0.0.1:%d", 9200+i)
	}
	return out
}

// Placement must split the keyspace roughly evenly: no member should see
// less than half or more than double its fair share.
func TestRingDistribution(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 3, 5} {
		r := NewRing(testBackends(n))
		counts := make([]int, n)
		for k := 0; k < keys; k++ {
			counts[r.Seq(mix(uint64(k), 7))[0]]++
		}
		fair := keys / n
		for i, c := range counts {
			if c < fair/2 || c > fair*2 {
				t.Errorf("n=%d backend %d got %d keys, fair share %d", n, i, c, fair)
			}
		}
	}
}

// Placement is a pure function of the backend list: two rings built from
// the same list agree on every key.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(testBackends(4))
	b := NewRing(testBackends(4))
	for k := uint64(0); k < 5000; k++ {
		key := mix(k, 3)
		if a.Seq(key)[0] != b.Seq(key)[0] {
			t.Fatalf("key %d: rings disagree", k)
		}
	}
}

// Skipping one backend remaps only its keys, each to the key's next
// backend in its order — and every key not owned by the skipped backend
// stays put. The survivor is the backend a ring built without the
// skipped one places the key on, so a router that walks past a dead
// backend routes exactly as one that never listed it.
func TestRingRemapOnReject(t *testing.T) {
	urls := testBackends(3)
	const dead = 1
	r := NewRing(urls)
	survivors := []string{urls[0], urls[2]}
	without := NewRing(survivors)
	moved := 0
	for k := uint64(0); k < 5000; k++ {
		key := mix(k, 11)
		seq := r.Seq(key)
		after := seq[0]
		if after == dead {
			moved++
			after = seq[1]
		}
		if got := survivors[without.Seq(key)[0]]; got != urls[after] {
			t.Fatalf("key %d: skipping backend %d walks to %s, a ring without it places the key on %s", k, dead, urls[after], got)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the skipped backend; distribution broken")
	}
}

// Seq is the full failover order: a permutation of all backends.
func TestRingSeq(t *testing.T) {
	r := NewRing(testBackends(4))
	for k := uint64(0); k < 2000; k++ {
		key := mix(k, 5)
		seq := r.Seq(key)
		if len(seq) != 4 {
			t.Fatalf("key %d: seq %v, want 4 distinct backends", k, seq)
		}
		seen := map[int]bool{}
		for _, idx := range seq {
			if seen[idx] {
				t.Fatalf("key %d: duplicate backend %d in seq %v", k, idx, seq)
			}
			seen[idx] = true
		}
	}
}

// Growing the fleet by one moves only a minority of the keyspace, and
// every key that moves goes to the new member — the consistent-hashing
// property that keeps the other backends' warm caches warm.
func TestRingStability(t *testing.T) {
	small := NewRing(testBackends(3))
	big := NewRing(testBackends(4))
	const keys = 5000
	moved := 0
	for k := uint64(0); k < keys; k++ {
		key := mix(k, 13)
		if before, after := small.Seq(key)[0], big.Seq(key)[0]; before != after {
			moved++
			if after != 3 {
				t.Fatalf("key %d moved %d -> %d, not to the new backend", k, before, after)
			}
		}
	}
	// The ideal is 1/4 of keys; allow generous slack but far below a full
	// reshuffle.
	if moved > keys/2 {
		t.Fatalf("adding one backend moved %d/%d keys", moved, keys)
	}
	if moved == 0 {
		t.Fatal("adding a backend moved nothing; the new member gets no traffic")
	}
}

// BodyDigest keys routing on bytes alone: equal bodies agree, different
// bodies (almost surely) differ.
func TestBodyDigest(t *testing.T) {
	a := BodyDigest([]byte(`{"id":"x"}`))
	b := BodyDigest([]byte(`{"id":"x"}`))
	c := BodyDigest([]byte(`{"id":"y"}`))
	if a != b {
		t.Fatal("equal bodies digest differently")
	}
	if a == c {
		t.Fatal("distinct bodies collided")
	}
}
