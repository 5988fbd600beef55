package shard

// Hooks for the external shard_test package.

// NewEqual builds a sharded index with equal-count boundaries (Boundaries).
func NewEqual(keys []uint32, nshards int, m int) *Index {
	return New(keys, Boundaries(keys, nshards), m)
}

// NeverFold keeps x's delta outstanding until Compact.
func NeverFold(x *Index) { x.delta = neverFold }

// PathBatches is pathBatches, exported.
var PathBatches = pathBatches
