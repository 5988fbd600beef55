package main

import "slices"

// hasher is FNV-1a over 32- and 64-bit words: the fingerprint of a
// generated op stream, and the checksum of a result set.
type hasher struct{ sum uint64 }

func newHasher() *hasher { return &hasher{sum: 14695981039346656037} }

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum = (h.sum ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

func (h *hasher) u32s(v []uint32) {
	for _, x := range v {
		h.sum = (h.sum ^ uint64(x)) * 1099511628211
	}
}

// ridSum is an order-independent checksum of a RID set: the engine returns
// rows in value order from an index and in row order from a scan, and a
// cached result keeps the order of the path that first computed it.
func ridSum(rids []uint32) uint64 {
	var s uint64
	for _, r := range rids {
		s += mix(uint64(r))
	}
	return s
}

// mix scrambles one element of a result set, so that the sum over the set
// tells apart sets that a plain sum of RIDs would not.
func mix(v uint64) uint64 {
	x := v * 0x9E3779B97F4A7C15
	return x ^ (x >> 29)
}

// answer is what a sampled query returned, kept until the measured pass is
// over so the brute-force recomputation costs the pass nothing.
type answer struct {
	op    int
	rows  int // table rows visible when the query ran
	count int
	sum   uint64
}

// scanRange is the oracle for lo ≤ col ≤ hi over the first rows rows.
func scanRange(col []uint32, rows int, lo, hi uint32) (int, uint64) {
	var n int
	var s uint64
	for r, v := range col[:rows] {
		if v >= lo && v <= hi {
			n++
			s += mix(uint64(r))
		}
	}
	return n, s
}

// inQuery is an IN-list answer awaiting its oracle check.
type inQuery struct {
	values []uint32
	rows   int // table rows visible when the query ran
	count  int
	sum    uint64
	op     int
	found  int // set by scanInMany on the queries it returns
}

// scanInMany is the oracle for col IN (values): one pass over the column
// serves every query, each limited to the rows it could see.  It returns the
// queries whose recorded answer disagrees with the scan.
func scanInMany(col []uint32, qs []inQuery) (bad []inQuery) {
	byValue := map[uint32][]int{}
	for qi, q := range qs {
		distinct := slices.Clone(q.values)
		slices.Sort(distinct)
		for _, v := range slices.Compact(distinct) {
			byValue[v] = append(byValue[v], qi)
		}
	}
	counts, sums := make([]int, len(qs)), make([]uint64, len(qs))
	for r, v := range col {
		for _, qi := range byValue[v] {
			if r < qs[qi].rows {
				counts[qi]++
				sums[qi] += mix(uint64(r))
			}
		}
	}
	for qi, q := range qs {
		if counts[qi] != q.count || sums[qi] != q.sum {
			q.found = counts[qi]
			bad = append(bad, q)
		}
	}
	return bad
}
