package cssidx_test

// Differential proofs for the parallel batch engine: every batch method of
// every wrapped kind, at worker counts and batch sizes straddling the
// sequential-fallback threshold, must be bit-identical to the scalar loop.
// Workers are forced above GOMAXPROCS so true interleaving happens even on
// one core (the -race CI leg then checks the memory model, and the
// GOMAXPROCS=8 leg real concurrency).

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/shard"
	"cssidx/internal/workload"
)

// parallelOptsUnderTest force the engine on at small sizes: a worker count
// and a pinned span (0 = calibrated, as NewParallel always is).
var parallelOptsUnderTest = []parallel.Options{
	{},                                      // default: engine decides
	{Workers: 1},                            // forced sequential
	{Workers: 4, MinBatchPerWorker: 64},     // forced parallel, fine spans
	{Workers: 3, MinBatchPerWorker: 1},      // odd worker count, tiny spans
	{Workers: 16, MinBatchPerWorker: 1024},  // more workers than work
	{Workers: 2, MinBatchPerWorker: 100000}, // fallback via min-batch
}

// parallelKeySets are the key sets every kind's parallel engine is held to:
// one large set with duplicates, and the sets that historically break index
// edge cases — empty, single key, all duplicates, keys at the uint32
// extremes, and runs straddling node boundaries.
func parallelKeySets(g *workload.Gen) map[string][]uint32 {
	allDup := make([]uint32, 100)
	for i := range allDup {
		allDup[i] = 42
	}
	var runs []uint32
	for v := uint32(1); v <= 6; v++ {
		for range 16 { // run length = node size
			runs = append(runs, v*1000)
		}
	}
	return map[string][]uint32{
		"dups-20000": g.SortedWithDuplicates(20000, 3),
		"empty":      {},
		"single":     {7},
		"single-max": {^uint32(0)},
		"all-dup":    allDup,
		"extremes":   {0, 0, 1, 2, ^uint32(0) - 1, ^uint32(0), ^uint32(0)},
		"node-runs":  runs,
	}
}

// parallelProbes covers hits, misses and the boundary values of keys, and
// repeats them to at least 4096 probes so every pinned span below fans out.
func parallelProbes(g *workload.Gen, keys []uint32) []uint32 {
	probes := []uint32{0, 1, 41, 42, 43, ^uint32(0) - 1, ^uint32(0)}
	if len(keys) > 0 {
		probes = append(probes, g.Lookups(keys, 3000)...)
		probes = append(probes, g.Misses(keys, 1500)...)
	}
	for _, k := range keys[:min(len(keys), 200)] {
		probes = append(probes, k-1, k, k+1) // wraps at the extremes on purpose
	}
	for len(probes) < 4096 {
		probes = append(probes, probes...)
	}
	return probes
}

func TestNewParallelMatchesScalarEveryKind(t *testing.T) {
	g := workload.New(31)
	sets := parallelKeySets(g)
	for _, set := range slices.Sorted(maps.Keys(sets)) {
		keys := sets[set]
		probes := parallelProbes(g, keys)
		for _, kind := range cssidx.Kinds() {
			idx := cssidx.New(kind, keys, cssidx.Options{})
			ord, ok := idx.(cssidx.OrderedIndex)
			if !ok {
				continue // hash: no ordered surface; covered via AsBatch elsewhere
			}
			for oi, opts := range parallelOptsUnderTest {
				name := fmt.Sprintf("%s/%s opts#%d", set, idx.Name(), oi)
				par := cssidx.NewParallelSpan(ord, opts.Workers, opts.MinBatchPerWorker)
				out := make([]int32, len(probes))
				first := make([]int32, len(probes))
				last := make([]int32, len(probes))

				par.SearchBatch(probes, out)
				for i, p := range probes {
					if want := int32(ord.Search(p)); out[i] != want {
						t.Fatalf("%s SearchBatch[%d]=%d want %d (key %d)", name, i, out[i], want, p)
					}
				}
				par.LowerBoundBatch(probes, out)
				for i, p := range probes {
					if want := int32(ord.LowerBound(p)); out[i] != want {
						t.Fatalf("%s LowerBoundBatch[%d]=%d want %d (key %d)", name, i, out[i], want, p)
					}
				}
				par.EqualRangeBatch(probes, first, last)
				for i, p := range probes {
					wf, wl := ord.EqualRange(p)
					if first[i] != int32(wf) || last[i] != int32(wl) {
						t.Fatalf("%s EqualRangeBatch[%d]=[%d,%d) want [%d,%d)", name, i, first[i], last[i], wf, wl)
					}
				}
			}
		}
	}
}

func TestNewParallelEmptyAndTinyBatches(t *testing.T) {
	g := workload.New(32)
	keys := g.SortedDistinct(1000)
	idx := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
	par := cssidx.NewParallelSpan(idx, 4, 1)
	par.SearchBatch(nil, nil)
	out := make([]int32, 1)
	par.SearchBatch([]uint32{keys[7]}, out)
	if out[0] != 7 {
		t.Errorf("single-probe batch: got %d, want 7", out[0])
	}
}

func TestNewParallelLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	keys := workload.New(33).SortedDistinct(100)
	cssidx.NewParallel(cssidx.NewLevelCSS(keys, 64), cssidx.ParallelOptions{}).
		SearchBatch(make([]uint32, 4), make([]int32, 3))
}

// TestNewParallelRejectsSortedBatch pins the composition rule: SortedBatch
// carries per-call scratch, so the engine must refuse to fan it out (the
// safe composition is NewSortedBatch(NewParallel(idx, opts))).
func TestNewParallelRejectsSortedBatch(t *testing.T) {
	keys := workload.New(37).SortedDistinct(1000)
	idx := cssidx.NewLevelCSS(keys, 64)
	defer func() {
		if recover() == nil {
			t.Error("NewParallel over a SortedBatch did not panic")
		}
	}()
	cssidx.NewParallel(cssidx.NewSortedBatch(idx), cssidx.ParallelOptions{})
}

// TestSortedOverParallelComposition exercises the safe composition the panic
// message points at.
func TestSortedOverParallelComposition(t *testing.T) {
	g := workload.New(38)
	keys := g.SortedWithDuplicates(10000, 3)
	idx := cssidx.NewLevelCSS(keys, 64)
	sb := cssidx.NewSortedBatch(cssidx.NewParallelSpan(idx, 4, 32))
	probes := g.ZipfLookups(keys, 3000, 1.2)
	out := make([]int32, len(probes))
	sb.SearchBatch(probes, out)
	for i, p := range probes {
		if want := int32(idx.Search(p)); out[i] != want {
			t.Fatalf("sorted-over-parallel SearchBatch[%d]=%d want %d", i, out[i], want)
		}
	}
}

// TestShardedParallelSchedulesMatchScalar drives both probe orders × every
// worker configuration of the sharded batch surface against the scalar
// methods.  The skewed stream runs key-ordered on five shards.  The uniform
// stream runs in input order on one shard, where the sample decides, and in
// batches under 128 probes on five, which never sort.  In 1,000-probe
// batches on five shards it takes the multi-shard rule's order (key order
// wherever the sorting network runs); whole, on five shards, it is larger
// than any batch the network sorts, so the sample decides and it runs in
// input order, fanned out.
func TestShardedParallelSchedulesMatchScalar(t *testing.T) {
	g := workload.New(35)
	keys := g.SortedWithDuplicates(30000, 4)
	uniform := append(g.Lookups(keys, 16000), g.Misses(keys, 4000)...)
	skewed := g.ZipfLookups(keys, 5000, 1.3)
	if shard.ChooseKeyOrder(uniform) || !shard.ChooseKeyOrder(skewed) {
		t.Fatalf("the sample takes key order %v for the uniform stream and %v for the skewed one", shard.ChooseKeyOrder(uniform), shard.ChooseKeyOrder(skewed))
	}
	for _, c := range []struct {
		name          string
		probes        []uint32
		shards, batch int
	}{
		{"skewed", skewed, 5, len(skewed)},
		{"uniform, one shard", uniform, 1, len(uniform)},
		{"uniform, 100-probe batches", uniform, 5, 100},
		{"uniform, 1,000-probe batches", uniform, 5, 1000},
		{"uniform", uniform, 5, len(uniform)},
	} {
		for _, par := range []parallel.Options{{Workers: 1}, {Workers: 4, MinBatchPerWorker: 128}} {
			name, probes := c.name, c.probes
			idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: c.shards})
			idx.SetParallel(par)
			v := idx.Snapshot()
			out := make([]int32, len(probes))
			first := make([]int32, len(probes))
			last := make([]int32, len(probes))
			lb := make([]int32, len(probes))
			for lo := 0; lo < len(probes); lo += c.batch {
				hi := min(lo+c.batch, len(probes))
				v.SearchBatch(probes[lo:hi], out[lo:hi])
				v.EqualRangeBatch(probes[lo:hi], first[lo:hi], last[lo:hi])
				v.LowerBoundBatch(probes[lo:hi], lb[lo:hi])
			}
			for i, p := range probes {
				if want := int32(v.Search(p)); out[i] != want {
					t.Fatalf("%s par=%+v SearchBatch[%d]=%d want %d", name, par, i, out[i], want)
				}
				if want := int32(v.LowerBound(p)); lb[i] != want {
					t.Fatalf("%s par=%+v LowerBoundBatch[%d]=%d want %d", name, par, i, lb[i], want)
				}
				wf, wl := v.EqualRange(p)
				if first[i] != int32(wf) || last[i] != int32(wl) {
					t.Fatalf("%s par=%+v EqualRangeBatch[%d] mismatch", name, par, i)
				}
			}
			idx.Close()
		}
	}
}
