package qcache

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestFingerprintHash checks the in-memory list hash: HashWords must
// separate permutations, single-value changes, zero-padded tails and the
// top-bit patterns that cancel across two words, and produce no collision
// over a million distinct lists.  (The frozen checksum fold persisted
// snapshots use lives in internal/snapio and is pinned there.)
func TestFingerprintHash(t *testing.T) {
	h := func(vs ...uint32) uint64 { return HashWords(HashSeed, vs) }
	for _, c := range [][2][]uint32{
		{{}, {0}},
		{{7}, {7, 0}},
		{{1, 2}, {1, 2, 0}},
		{{1, 2, 0}, {1, 2, 0, 0}},
		{{1, 2}, {2, 1}},
		{{0, 1}, {1 << 31, 0}},
	} {
		if h(c[0]...) == h(c[1]...) {
			t.Errorf("HashWords(%v) == HashWords(%v)", c[0], c[1])
		}
	}

	rng := rand.New(rand.NewSource(28))
	// Every ordering of a few lists hashes apart.
	for trial := 0; trial < 20; trial++ {
		base := make([]uint32, 3+trial%3)
		for i := range base {
			base[i] = uint32(rng.Intn(4)) + uint32(i)*4 // distinct, small
		}
		seen := map[uint64][]uint32{}
		var permute func(k int)
		permute = func(k int) {
			if k == len(base) {
				v := h(base...)
				if prev, dup := seen[v]; dup {
					t.Fatalf("permutations %v and %v collide", prev, base)
				}
				seen[v] = slices.Clone(base)
				return
			}
			for i := k; i < len(base); i++ {
				base[k], base[i] = base[i], base[k]
				permute(k + 1)
				base[k], base[i] = base[i], base[k]
			}
		}
		permute(0)
	}
	// Any single changed value changes the hash.
	for trial := 0; trial < 200; trial++ {
		list := make([]uint32, 1+rng.Intn(40))
		for i := range list {
			list[i] = rng.Uint32()
		}
		want := h(list...)
		for i := range list {
			old := list[i]
			for _, v := range []uint32{old + 1, old ^ 1<<31, 0, math.MaxUint32} {
				if v == old {
					continue
				}
				list[i] = v
				if h(list...) == want {
					t.Fatalf("changing [%d] %d→%d kept the hash of %v", i, old, v, list)
				}
			}
			list[i] = old
		}
	}
	// Four values changed in the carry-free patterns a one-multiply step lets
	// through: a top-bit difference in one word, then the state difference it
	// leaves, cancelled by the next word.  Trial 0 is the bare pattern on
	// [0,0,0,0]; the others put it after random values and a random prefix.
	for _, d := range [][4]uint32{
		{0, 1 << 31, 0, 1 << 31},       // step: xor, multiply
		{0, 1 << 31, 0, 1<<31 | 4},     // step: xor, multiply, xorshift 29
		{0, 1 << 31, 1 << 31, 1 << 31}, // step: xor, multiply, xorshift 32
		{1 << 31, 1 << 31, 0, 1 << 31}, // step: xor, xorshift 32, multiply
	} {
		for trial := 0; trial < 200; trial++ {
			a := make([]uint32, 4)
			if trial > 0 {
				a = make([]uint32, 4+rng.Intn(9))
				for i := range a {
					a[i] = rng.Uint32()
				}
			}
			b := slices.Clone(a)
			for i := range d {
				b[len(b)-4+i] ^= d[i]
			}
			if h(a...) == h(b...) {
				t.Fatalf("HashWords(%v) == HashWords(%v)", a, b)
			}
		}
	}
	// No collision over a million distinct lists of low-entropy values: each
	// opens with its own index, so no two are equal.
	const n = 1_000_000
	hashes := make([]uint64, n)
	list := make([]uint32, 0, 32)
	for i := range hashes {
		list = append(list[:0], uint32(i))
		for j := rng.Intn(24); j > 0; j-- {
			list = append(list, uint32(rng.Intn(16)))
		}
		hashes[i] = HashWords(HashSeed, list)
	}
	slices.Sort(hashes)
	for i := 1; i < len(hashes); i++ {
		if hashes[i] == hashes[i-1] {
			t.Fatalf("two of %d distinct lists hash to %#x", n, hashes[i])
		}
	}
}

// TestWordStepHasNoFixedDifferential: no difference of one or two bits in a
// word may leave the same state difference whatever the state.  If one did,
// the next word could cancel it, and the two lists would collide after any
// prefix.
func TestWordStepHasNoFixedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var states [8]uint64
	for i := range states {
		states[i] = rng.Uint64()
	}
	w := rng.Uint64()
	for i := 0; i < 64; i++ {
		for j := i; j < 64; j++ {
			d := uint64(1)<<i | uint64(1)<<j
			fixed := true
			want := wordStep(states[0], w) ^ wordStep(states[0], w^d)
			for _, s := range states[1:] {
				fixed = fixed && wordStep(s, w)^wordStep(s, w^d) == want
			}
			if fixed {
				t.Fatalf("word difference %#x leaves state difference %#x from every state", d, want)
			}
		}
	}
}
