package cssidx_test

// Differential proofs for the parallel batch engine: every batch method of
// every wrapped kind, at worker counts and batch sizes straddling the
// sequential-fallback threshold, must be bit-identical to the scalar loop.
// Workers are forced above GOMAXPROCS so true interleaving happens even on
// one core (the -race CI leg then checks the memory model, and the
// GOMAXPROCS=8 leg real concurrency).

import (
	"testing"

	"cssidx"
	"cssidx/internal/shard"
	"cssidx/internal/workload"
)

// parallelOptsUnderTest force the engine on at small sizes.
var parallelOptsUnderTest = []cssidx.ParallelOptions{
	{},                                      // default: engine decides
	{Workers: 1},                            // forced sequential
	{Workers: 4, MinBatchPerWorker: 64},     // forced parallel, fine spans
	{Workers: 3, MinBatchPerWorker: 1},      // odd worker count, tiny spans
	{Workers: 16, MinBatchPerWorker: 1024},  // more workers than work
	{Workers: 2, MinBatchPerWorker: 100000}, // fallback via min-batch
}

func TestNewParallelMatchesScalarEveryKind(t *testing.T) {
	g := workload.New(31)
	keys := g.SortedWithDuplicates(20000, 3)
	probes := append(g.Lookups(keys, 3000), g.Misses(keys, 1500)...)
	probes = append(probes, 0, ^uint32(0))

	for _, kind := range cssidx.Kinds() {
		idx := cssidx.New(kind, keys, cssidx.Options{})
		ord, ok := idx.(cssidx.OrderedIndex)
		if !ok {
			continue // hash: no ordered surface; covered via AsBatch elsewhere
		}
		for oi, opts := range parallelOptsUnderTest {
			par := cssidx.NewParallel(ord, opts)
			out := make([]int32, len(probes))
			first := make([]int32, len(probes))
			last := make([]int32, len(probes))

			par.SearchBatch(probes, out)
			for i, p := range probes {
				if want := int32(ord.Search(p)); out[i] != want {
					t.Fatalf("%s opts#%d SearchBatch[%d]=%d want %d (key %d)", idx.Name(), oi, i, out[i], want, p)
				}
			}
			par.LowerBoundBatch(probes, out)
			for i, p := range probes {
				if want := int32(ord.LowerBound(p)); out[i] != want {
					t.Fatalf("%s opts#%d LowerBoundBatch[%d]=%d want %d (key %d)", idx.Name(), oi, i, out[i], want, p)
				}
			}
			par.EqualRangeBatch(probes, first, last)
			for i, p := range probes {
				wf, wl := ord.EqualRange(p)
				if first[i] != int32(wf) || last[i] != int32(wl) {
					t.Fatalf("%s opts#%d EqualRangeBatch[%d]=[%d,%d) want [%d,%d)", idx.Name(), oi, i, first[i], last[i], wf, wl)
				}
			}
		}
	}
}

func TestNewParallelEmptyAndTinyBatches(t *testing.T) {
	g := workload.New(32)
	keys := g.SortedDistinct(1000)
	idx := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
	par := cssidx.NewParallel(idx, cssidx.ParallelOptions{Workers: 4, MinBatchPerWorker: 1})
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
	sb := cssidx.NewSortedBatch(cssidx.NewParallel(idx, cssidx.ParallelOptions{Workers: 4, MinBatchPerWorker: 32}))
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
// methods: the sampler sends the uniform stream down the input-order path
// and the skewed one down the key-ordered path.
func TestShardedParallelSchedulesMatchScalar(t *testing.T) {
	g := workload.New(35)
	keys := g.SortedWithDuplicates(30000, 4)
	streams := map[string][]uint32{
		"uniform": append(g.Lookups(keys, 4000), g.Misses(keys, 1000)...),
		"skewed":  g.ZipfLookups(keys, 5000, 1.3),
	}
	for name, probes := range streams {
		if got, want := shard.ChooseKeyOrder(probes), name == "skewed"; got != want {
			t.Fatalf("%s stream: key-ordered %v, want %v", name, got, want)
		}
		for _, par := range []cssidx.ParallelOptions{{Workers: 1}, {Workers: 4, MinBatchPerWorker: 128}} {
			idx := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 5, Parallel: par})
			v := idx.Snapshot()
			out := make([]int32, len(probes))
			first := make([]int32, len(probes))
			last := make([]int32, len(probes))
			v.SearchBatch(probes, out)
			v.EqualRangeBatch(probes, first, last)
			lb := make([]int32, len(probes))
			v.LowerBoundBatch(probes, lb)
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
