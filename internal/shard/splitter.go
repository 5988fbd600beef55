package shard

// Split-point planning.  Boundaries splits by key count — every shard gets
// the same share of the data.

import "runtime"

// maxDefaultShards caps the default shard count (GOMAXPROCS).
const maxDefaultShards = 16

// Boundaries returns up to nshards-1 strictly ascending split keys that
// partition the sorted keys into ranges of (near-)equal count; nshards ≤ 0
// picks the default count, GOMAXPROCS capped at 16.  Duplicates never
// straddle a cut: a boundary value's whole run lands in the shard to the
// boundary's right.  Fewer boundaries (hence fewer shards) are returned when
// the data has too few distinct values to support nshards — over no keys,
// none: one shard.
func Boundaries(sorted []uint32, nshards int) []uint32 {
	if nshards <= 0 {
		nshards = min(runtime.GOMAXPROCS(0), maxDefaultShards)
	}
	if nshards < 2 || len(sorted) == 0 {
		return nil
	}
	var bounds []uint32
	for i := 1; i < nshards; i++ {
		cut := i * len(sorted) / nshards
		if cut <= 0 || cut >= len(sorted) {
			continue
		}
		b := sorted[cut]
		if len(bounds) == 0 || b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}
