package shard

// Hooks for the external shard_test package.

import (
	"cmp"
	"testing"
)

// NeverFold keeps x's delta outstanding until Compact.
func NeverFold[K cmp.Ordered](x *Index[K]) { x.delta = neverFold }

// PathBatches is pathBatches for uint32 probes.
func PathBatches(t testing.TB, probes []uint32) (input, keyOrdered []uint32) {
	t.Helper()
	return pathBatches(t, probes)
}
