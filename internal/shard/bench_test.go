package shard

import (
	"math/rand"
	"testing"

	"cssidx/internal/workload"
)

// benchIndex builds serve_sharded's shape — eight shards under Zipf read
// batches of resident keys — at a tenth of its size under -short.
func benchIndex() (*Index, []uint32, [][]uint32) {
	n := 4_000_000
	if testing.Short() {
		n = 400_000
	}
	g := workload.New(1)
	keys := g.SortedUniform(n)
	x := NewEqual(keys, 8, 16)
	x.delta = neverFold
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	reads := make([][]uint32, 1024)
	for i := range reads {
		p := make([]uint32, 512)
		for j := range p {
			p[j] = keys[z.Uint64()*2654435761%uint64(n)]
		}
		reads[i] = p
	}
	return x, keys, reads
}

// BenchmarkSearchBatchDelta prices what an outstanding delta costs the read
// path: the same 512-probe Zipf batches against an index with no delta and
// against one carrying the delta the default policy lets a shard reach just
// before it folds (1/512 of the base, a tenth of it tombstones).
func BenchmarkSearchBatchDelta(b *testing.B) {
	for _, withDelta := range []bool{false, true} {
		name := "delta=none"
		if withDelta {
			name = "delta=base/512"
		}
		b.Run(name, func(b *testing.B) {
			x, keys, reads := benchIndex()
			defer x.Close()
			if withDelta {
				g := workload.New(2)
				x.Insert(g.Misses(keys, len(keys)/512*9/10)...)
				x.Delete(g.Lookups(keys, len(keys)/512/10)...)
				x.Sync()
			}
			out := make([]int32, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.SearchBatch(reads[i%len(reads)], out)
			}
		})
	}
}

// BenchmarkAbsorbAndFold prices the write side on one 500K-key shard: a
// 32-insert + 16-delete batch absorbed into a delta near its fold size, and
// the fold of that delta (span copy + tree build).
func BenchmarkAbsorbAndFold(b *testing.B) {
	n := 500_000
	if testing.Short() {
		n = 50_000
	}
	g := workload.New(3)
	keys := g.SortedUniform(n)
	x := NewEqual(keys, 1, 16)
	defer x.Close()
	base := x.shards[0].cur.Load()
	loaded := absorb(base, g.Misses(keys, n/512*9/10), g.Lookups(keys, n/512/10))
	ins, del := g.Misses(keys, 32), g.Lookups(keys, 16)
	bufI, bufD := make([]uint32, len(ins)), make([]uint32, len(del))
	b.Run("absorb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(bufI, ins)
			copy(bufD, del)
			absorb(loaded, bufI, bufD)
		}
	})
	b.Run("fold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x.fold(loaded, loaded.epoch+1)
		}
	})
}

// BenchmarkEnqueue prices Insert's routing of one 256-key write.
func BenchmarkEnqueue(b *testing.B) {
	x, keys, _ := benchIndex()
	defer x.Close()
	batch := workload.New(4).Misses(keys, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.enqueue(batch, true)
		if i%64 == 63 {
			b.StopTimer()
			x.Compact()
			b.StartTimer()
		}
	}
}
