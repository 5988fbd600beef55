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

// deltaLoads are the deltas the benchmarks price, as fractions of the
// largest one the default policy lets a shard hold before it folds
// (base/foldDenominator): none, half full and full.
var deltaLoads = []struct {
	name     string
	num, den int
}{{"none", 0, 1}, {"half", 1, 2}, {"full", 1, 1}}

// deltaBatch draws a delta of num/den of base/foldDenominator over the
// sorted keys, a tenth of it deletes of resident keys and the rest inserts
// of fresh ones.
func deltaBatch(g *workload.Gen, keys []uint32, num, den int) (ins, del []uint32) {
	d := len(keys) / foldDenominator * num / den
	return g.Misses(keys, d-d/10), g.Lookups(keys, d/10)
}

// BenchmarkSearchBatchDelta prices what an outstanding delta costs the read
// path: the same 512-probe Zipf batches against an index with no delta and
// against ones carrying half and all of the delta the default policy lets
// a shard reach before it folds.
func BenchmarkSearchBatchDelta(b *testing.B) {
	for _, load := range deltaLoads {
		b.Run("delta="+load.name, func(b *testing.B) {
			x, keys, reads := benchIndex()
			defer x.Close()
			if load.num > 0 {
				ins, del := deltaBatch(workload.New(2), keys, load.num, load.den)
				x.Insert(ins...)
				x.Delete(del...)
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
// 32-insert + 16-delete batch absorbed into a half and a full delta at the
// default policy, and the fold of each (span copy + tree build).
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
	ins, del := g.Misses(keys, 32), g.Lookups(keys, 16)
	bufI, bufD := make([]uint32, len(ins)), make([]uint32, len(del))
	for _, load := range deltaLoads[1:] {
		dIns, dDel := deltaBatch(g, keys, load.num, load.den)
		loaded := absorb(base, dIns, dDel)
		b.Run("absorb/delta="+load.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(bufI, ins)
				copy(bufD, del)
				absorb(loaded, bufI, bufD)
			}
		})
		b.Run("fold/delta="+load.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.fold(loaded, loaded.epoch+1)
			}
		})
	}
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
