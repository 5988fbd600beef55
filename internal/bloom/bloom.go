// Package bloom is the small membership filter in front of the delta
// layer's sorted runs: before a read binary-searches a run for a key, the
// filter answers "definitely absent" from one or two cache lines, so base
// reads on key ranges a delta batch never touched pay almost nothing for
// the delta's existence.  The filter is sized at build time for the run it
// guards (10–20 bits/key, two probes, 1–3% false positives) and is immutable
// after Build — it lives inside published snapshots, so reads need no
// synchronisation.
package bloom

// Filter is a split-probe bloom filter over uint32 keys.  The zero value is
// a filter over nothing: May reports false for every key.
type Filter struct {
	bits []uint64
	mask uint32 // len(bits)*64 - 1; bit count is a power of two
}

// bitsPerKey is the floor the filter is sized to before rounding the bit
// count up to a power of two: 10–20 bits/key with 2 probes gives a false-
// positive rate of 1–3%, cheap enough that fence checks rarely matter.
const bitsPerKey = 10

// Build constructs a filter over the keys.
func Build(keys []uint32) Filter {
	if len(keys) == 0 {
		return Filter{}
	}
	nbits := 64
	for nbits < len(keys)*bitsPerKey {
		nbits <<= 1
	}
	f := Filter{bits: make([]uint64, nbits/64), mask: uint32(nbits - 1)}
	for _, k := range keys {
		h1, h2 := f.probes(k)
		f.bits[h1>>6] |= 1 << (h1 & 63)
		f.bits[h2>>6] |= 1 << (h2 & 63)
	}
	return f
}

// probes derives both bit positions from one 64-bit hash.  With several
// runs per index a point probe hashes once per run, so the hash is an
// inlined multiply-xorshift finaliser.
func (f Filter) probes(k uint32) (uint32, uint32) {
	h := mix64(uint64(k))
	return uint32(h) & f.mask, uint32(h>>32) & f.mask
}

// mix64 is the 64-bit finaliser of MurmurHash3: two multiplies and three
// xor-shifts, after which every input bit reaches both halves of the
// output — the two probe positions are drawn one from each half.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// May reports whether the key may be in the set (false = definitely not).
func (f Filter) May(k uint32) bool {
	if f.bits == nil {
		return false
	}
	h1, h2 := f.probes(k)
	return f.bits[h1>>6]&(1<<(h1&63)) != 0 && f.bits[h2>>6]&(1<<(h2&63)) != 0
}

// Bytes returns the filter's memory footprint.
func (f Filter) Bytes() int { return 8 * len(f.bits) }
