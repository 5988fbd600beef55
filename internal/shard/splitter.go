package shard

// Split-point planning.  Boundaries splits by key count — every shard gets
// the same share of the data.  WeightedBoundaries splits by *probe mass*,
// the skew-aware policy: given a sample of the lookup distribution (e.g. a
// Zipf stream from internal/workload), it places the cuts at sample
// quantiles, so a hot range is served by more, smaller shards whose trees
// are shallower and whose rebuilds are cheaper, while cold ranges share
// wide shards.

import (
	"slices"
)

// Boundaries returns up to nshards-1 strictly ascending split keys that
// partition the sorted keys into ranges of (near-)equal count.  Duplicates
// never straddle a cut: a boundary value's whole run lands in the shard to
// the boundary's right.  Fewer boundaries (hence fewer shards) are returned
// when the data has too few distinct values to support nshards.
func Boundaries(sorted []uint32, nshards int) []uint32 {
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

// WeightedBoundaries returns up to nshards-1 strictly ascending split keys
// placed at quantiles of the probe sample, so each shard receives roughly
// equal lookup traffic.  An empty sample falls back to equal-count
// Boundaries over the data.
func WeightedBoundaries(sorted []uint32, sample []uint32, nshards int) []uint32 {
	if nshards < 2 || len(sorted) == 0 {
		return nil
	}
	if len(sample) == 0 {
		return Boundaries(sorted, nshards)
	}
	ws := slices.Clone(sample)
	slices.Sort(ws)
	var bounds []uint32
	for i := 1; i < nshards; i++ {
		b := ws[i*len(ws)/nshards]
		if b <= sorted[0] {
			continue // a cut at or below the minimum key yields an empty shard
		}
		if len(bounds) == 0 || b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}
