package sortu32

import (
	"fmt"
	"math/rand"
	"testing"

	"cssidx/internal/cpu"
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

// BenchmarkSortBatchZipf prices one key-ordered probe plan (Unique.Sort:
// pack, sort, dedupe) of serve_sharded's Zipf-1.1 shape at each batch size,
// through the sorting network ("kernel", AVX-512 hosts only) and through
// the LSD body ("lsd"): the rows networkMax is read from.
func BenchmarkSortBatchZipf(b *testing.B) {
	defer func(prev bool) { network512 = prev }(network512)
	for _, size := range []int{64, 128, 256, 512, 1024, 2048, 4096, networkMax, 24576, 32767} {
		batches := zipfBatches(max(1, 256*1024/size), size)
		for _, body := range []string{"kernel", "lsd"} {
			b.Run(fmt.Sprintf("n=%d/%s", size, body), func(b *testing.B) {
				if body == "kernel" && !cpu.AVX512 {
					b.Skip("no AVX-512")
				}
				network512 = body == "kernel"
				var u Unique
				for i := 0; b.Loop(); i++ {
					u.Sort(batches[i%len(batches)], parallel.Options{Workers: 1})
				}
			})
		}
	}
}
