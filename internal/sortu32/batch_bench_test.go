package sortu32

import (
	"math/rand"
	"testing"

	"cssidx/internal/parallel"
)

// zipfBatches draws serve_sharded's read batches as shard's benchIndex
// does: Zipf-1.1 ranks over 4M keys, each rank scattered by ×2654435761,
// here over keys spaced evenly across the uint32 range.
func zipfBatches(count, size int) [][]uint32 {
	const n = 4_000_000
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, n-1)
	out := make([][]uint32, count)
	for i := range out {
		p := make([]uint32, size)
		for j := range p {
			p[j] = uint32(z.Uint64()*2654435761%n) * (1 << 32 / n)
		}
		out[i] = p
	}
	return out
}

// BenchmarkSortBatchZipf512 prices one key-ordered probe batch of
// serve_sharded's shape: "unique" is the whole Unique.Sort (copy, sort,
// dedupe), "pairs" the bare SortPairsScratch of (key, index) it replaced.
func BenchmarkSortBatchZipf512(b *testing.B) {
	batches := zipfBatches(1024, 512)
	b.Run("unique", func(b *testing.B) {
		var u Unique
		for i := 0; b.Loop(); i++ {
			u.Sort(batches[i%len(batches)], parallel.Options{Workers: 1})
		}
	})
	b.Run("pairs", func(b *testing.B) {
		keys, vals, tmpK, tmpV := make([]uint32, 512), make([]uint32, 512), make([]uint32, 512), make([]uint32, 512)
		for i := 0; b.Loop(); i++ {
			copy(keys, batches[i%len(batches)])
			for j := range vals {
				vals[j] = uint32(j)
			}
			SortPairsScratch(keys, vals, tmpK, tmpV)
		}
	})
}
