package cssidx_test

// Benchmarks for the parallel batch engine: the acceptance shape is parallel
// SearchBatch on a ≥64k-probe batch beating the single-threaded lockstep
// kernel once GOMAXPROCS ≥ 4 (each worker keeps its own complement of
// independent cache misses in flight), and the engine at one worker matching
// the bare kernel.  End to end, the benchmark module's probe_uniform workload
// reports the same engine's parallel.speedup and parallel.dispatch_us.

import (
	"fmt"
	"testing"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// batchBenchSetup builds the tree and one large probe batch.
func batchBenchSetup(b *testing.B, n, batch int) (cssidx.OrderedIndex, []uint32, []int32) {
	b.Helper()
	g := workload.New(1)
	keys := g.SortedUniform(n)
	probes := g.Lookups(keys, batch)
	return cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes), probes, make([]int32, batch)
}

// BenchmarkParallelSearchBatch64k sweeps worker counts over one 64k-probe
// batch; the "lockstep" case is the kernel with no engine around it.
func BenchmarkParallelSearchBatch64k(b *testing.B) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	level, probes, out := batchBenchSetup(b, n, 1<<16)

	seq := cssidx.AsBatchOrdered(level)
	b.Run("lockstep", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq.SearchBatch(probes, out)
		}
		b.ReportMetric(float64(len(probes))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
	})
	for _, w := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=GOMAXPROCS"
		}
		par := cssidx.NewParallel(level, cssidx.ParallelOptions{Workers: w})
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				par.SearchBatch(probes, out)
			}
			b.ReportMetric(float64(len(probes))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
		})
	}
}

// BenchmarkParallelShardedBatch64k is the same sweep through the sharded
// serving layer: per-shard runs fan across the pool, one frozen epoch per
// batch.
func BenchmarkParallelShardedBatch64k(b *testing.B) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	g := workload.New(1)
	keys := g.SortedUniform(n)
	probes := g.Lookups(keys, 1<<16)
	out := make([]int32, len(probes))
	for _, w := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=GOMAXPROCS"
		}
		idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
		idx.SetParallel(parallel.Options{Workers: w})
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.SearchBatch(probes, out)
			}
			b.ReportMetric(float64(len(probes))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
		})
		idx.Close()
	}
}
