package simidx_test

// Differential test harness: every index method in the repository — the
// real implementations behind the public API and the address-trace
// simulators of this package — is driven against the sorted-slice model
// (crashtest.Model) on random and adversarial key sets.  The sims are
// required by their package contract to return the same answers as the real
// structures; this harness enforces that contract and the public one from a
// single source of truth, extending the model-vs-simulation cross-checks of
// crossvalidate_test.go down to exact per-probe equality.  The concurrent
// ShardedIndex is held to the same model by inputs of crashtest's op
// generator, through its public surface only — without the shard package's
// hooks, so "every batch" folds by Compact after each one.

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/binsearch"
	"cssidx/internal/cachesim"
	"cssidx/internal/crashtest"
	"cssidx/internal/mem"
	"cssidx/internal/simidx"
	"cssidx/internal/workload"
)

// probeSet covers hits, misses, and the boundary values for a key set.
func probeSet(keys []uint32, g *workload.Gen) []uint32 {
	probes := []uint32{0, 1, 41, 42, 43, math.MaxUint32 - 1, math.MaxUint32}
	for _, k := range keys {
		probes = append(probes, k)
		if k > 0 {
			probes = append(probes, k-1)
		}
		if k < math.MaxUint32 {
			probes = append(probes, k+1)
		}
		if len(probes) > 3000 {
			break
		}
	}
	if len(keys) > 0 && g != nil {
		probes = append(probes, g.Lookups(keys, 500)...)
		probes = append(probes, g.Misses(keys, 200)...)
	}
	return probes
}

// checkIndex verifies one public-API index against the oracle, scalar and
// batched: every Kind must answer batches (natively or through the scalar
// adapter), ordered kinds additionally through the sort-probes-first
// schedule, all bit-identical to the oracle.
func checkIndex(t *testing.T, name string, idx cssidx.Index, o crashtest.Model, probes []uint32) {
	t.Helper()
	ord, ordered := idx.(cssidx.OrderedIndex)
	for _, p := range probes {
		if got, want := idx.Search(p), o.Search(p); got != want {
			t.Fatalf("%s: Search(%d)=%d want %d", name, p, got, want)
		}
		if !ordered {
			continue
		}
		wf, wl := o.EqualRange(p)
		if gf, gl := ord.EqualRange(p); ord.LowerBound(p) != wf || gf != wf || gl != wl {
			t.Fatalf("%s: LowerBound(%d)=%d, EqualRange [%d,%d); want %d, [%d,%d)", name, p, ord.LowerBound(p), gf, gl, wf, wf, wl)
		}
	}
	checkBatcher(t, name+"/batch", cssidx.AsBatch(idx), ordered, o, probes)
	if ordered {
		checkBatcher(t, name+"/sorted-batch", cssidx.NewSortedBatch(ord), true, o, probes)
		// The parallel engine at its calibrated span must stay
		// bit-identical too; the root package's
		// TestNewParallelMatchesScalarEveryKind forces its fan-out at
		// pinned tiny spans over these same adversarial key sets.
		par := cssidx.NewParallel(ord, cssidx.ParallelOptions{Workers: 4})
		checkBatcher(t, name+"/parallel-batch", par, true, o, probes)
	}
}

// checkBatcher verifies a batch surface against the model at several chunk
// sizes, including chunks that are not multiples of the lockstep width; an
// ordered one's three kernels, an unordered one's SearchBatch.
func checkBatcher(t *testing.T, name string, b cssidx.BatchIndex, ordered bool, o crashtest.Model, probes []uint32) {
	t.Helper()
	bord, ok := b.(cssidx.BatchOrderedIndex)
	ordered = ordered && ok
	n := len(probes)
	out, lb, first, last := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	for _, chunk := range []int{n, 7, 64} {
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			b.SearchBatch(probes[lo:hi], out[lo:hi])
			if ordered {
				bord.LowerBoundBatch(probes[lo:hi], lb[lo:hi])
				bord.EqualRangeBatch(probes[lo:hi], first[lo:hi], last[lo:hi])
			}
		}
		for i, p := range probes {
			wf, wl := o.EqualRange(p)
			if int(out[i]) != o.Search(p) || ordered && (int(lb[i]) != wf || int(first[i]) != wf || int(last[i]) != wl) {
				t.Fatalf("%s chunk=%d, probe %d: SearchBatch %d, LowerBoundBatch %d, EqualRangeBatch [%d,%d); want %d, %d, [%d,%d)",
					name, chunk, p, out[i], lb[i], first[i], last[i], o.Search(p), wf, wf, wl)
			}
		}
	}
}

// checkSim verifies one simulated index against the oracle: Probe's Index
// field is the lower bound for ordered methods and the hit position (or -1)
// for hash.
func checkSim(t *testing.T, s simidx.Sim, o crashtest.Model, probes []uint32) {
	t.Helper()
	_, isHash := s.(*simidx.Hash)
	for _, p := range probes {
		got := s.Probe(nil, p).Index
		if isHash {
			if want := o.Search(p); got != want {
				t.Fatalf("sim %s: Probe(%d)=%d want %d", s.Name(), p, got, want)
			}
		} else if want := o.LowerBound(p); got != want {
			t.Fatalf("sim %s: Probe(%d)=%d want %d", s.Name(), p, got, want)
		}
	}
}

// checkEverything drives every method over one key set.
func checkEverything(t *testing.T, keys []uint32, g *workload.Gen) {
	t.Helper()
	o := crashtest.Model(keys)
	probes := probeSet(keys, g)
	n := len(keys)
	for _, kind := range cssidx.Kinds() {
		checkIndex(t, kind.String(), cssidx.New(kind, keys, cssidx.Options{}), o, probes)
	}
	ttCap := (16*4 - 8) / 8
	sims := []simidx.Sim{
		simidx.NewBinarySearch(keys, cachesim.NewAddrAlloc()),
		simidx.NewBST(keys, cachesim.NewAddrAlloc()),
		simidx.NewInterpolationSearch(keys, cachesim.NewAddrAlloc()),
		simidx.NewTTree(keys, ttCap, cachesim.NewAddrAlloc()),
		simidx.NewBPlusTree(keys, 16, cachesim.NewAddrAlloc()),
		simidx.NewFullCSS(keys, 16, cachesim.NewAddrAlloc()),
		simidx.NewLevelCSS(keys, 16, cachesim.NewAddrAlloc()),
		simidx.NewHash(keys, cssidx.DefaultHashDirSize(n), mem.CacheLine, cachesim.NewAddrAlloc()),
	}
	for _, s := range sims {
		checkSim(t, s, o, probes)
	}
	for _, shards := range []int{1, 4} {
		shardOpsOver(t, keys, shards, int64(n))
	}
}

// shardOpsOver holds the sharded index to the model over keys: a generator
// input of a few insert, delete, drained and delete-then-insert batches and
// a Compact, with fan-out and the probe-order mix drawn from seed.
func shardOpsOver(t *testing.T, keys []uint32, shards int, seed int64) {
	t.Helper()
	f := crashtest.ShardFocus{Base: keys, Shards: shards, FanOut: seed%2 == 1, Mix: int(seed % 3), Steps: 4,
		Inserts: 2, Deletes: 2, Drains: 1, Reinserts: 1, Compacts: 1}
	f.Run(t, seed, crashtest.ShardHooks{})
}

func TestDifferentialAdversarial(t *testing.T) {
	for name, keys := range crashtest.AdversarialSets() {
		t.Run(name, func(t *testing.T) { checkEverything(t, keys, nil) })
	}
}

func TestDifferentialRandom(t *testing.T) {
	sizes := []int{100, 4097}
	if !testing.Short() {
		sizes = append(sizes, 60000)
	}
	for _, seed := range []int64{1, 2, 3} {
		g := workload.New(seed)
		for _, n := range sizes {
			for name, keys := range map[string][]uint32{
				"distinct": g.SortedDistinct(n),
				"dups":     g.SortedWithDuplicates(n, 4),
				"skewed":   g.SortedSkewed(n),
			} {
				t.Run(name, func(t *testing.T) { checkEverything(t, keys, g) })
			}
		}
	}
}

// TestDifferentialShardedMutations: insert, delete and paired batches over a
// base of duplicated keys, the serving layer's §2.3 cycle against first
// principles.
func TestDifferentialShardedMutations(t *testing.T) {
	f := crashtest.ShardFocus{Rows: 4000, Span: 2, Shards: 4, Steps: 15, Batch: 64, Inserts: 2, Deletes: 2, Drains: 1}
	f.Run(t, 77, crashtest.ShardHooks{}, "absorb", "tombstones", "over-delete")
}

// TestDifferentialDeltaVsFolded: the same kind of stream absorbed into the
// delta and folded after every batch, and a default-schedule index over a
// small base that inserts alone carry past the fold threshold.
func TestDifferentialDeltaVsFolded(t *testing.T) {
	t.Run("delta", func(t *testing.T) {
		f := crashtest.ShardFocus{Rows: 5000, Span: 2, Shards: 4, Steps: 20, Batch: 64,
			Inserts: 4, Deletes: 2, Drains: 1, Compacts: 2}
		f.Run(t, 91, crashtest.ShardHooks{}, "absorb", "tombstones", "cancelled insert", "compact with a delta")
	})
	t.Run("folded", func(t *testing.T) {
		f := crashtest.ShardFocus{Rows: 5000, Span: 2, Shards: 4, Fold: crashtest.FoldEveryBatch, Steps: 20, Batch: 64,
			Inserts: 4, Deletes: 2, Drains: 1}
		f.Run(t, 91, crashtest.ShardHooks{}, "fold")
	})
	t.Run("size-fold", func(t *testing.T) {
		f := crashtest.ShardFocus{Rows: 40, Span: 3, Shards: 1, Steps: 30, Batch: 64, Inserts: 1}
		f.Run(t, 92, crashtest.ShardHooks{}, "fold")
	})
}

// FuzzDifferentialDeltaAppends explores the generator without hooks, from a
// drawn base, an adversarial one and the durable leg.
func FuzzDifferentialDeltaAppends(f *testing.F) {
	for i, focus := range []crashtest.ShardFocus{
		{Rows: 200, Span: 1, Shards: 3, Steps: 8, Batch: 16, Inserts: 3, Deletes: 2, Drains: 1, Compacts: 1},
		{Set: 4, Shards: 3, Fold: crashtest.FoldEveryBatch, Steps: 8, Batch: 16, Inserts: 2, Deletes: 2, Drains: 1},
		{Rows: 120, Span: 0, Shards: 4, Leg: 3, Steps: 8, Batch: 16, Inserts: 3, Deletes: 2, Checkpoints: 1, Crashes: 1},
	} {
		f.Add(focus.Input(int64(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32 {
			t.Skip()
		}
		crashtest.FuzzShardOps(t, data, crashtest.ShardHooks{})
	})
}

// TestDifferentialShardedBatchUnderRebuilds probes batches concurrently with
// a writer churning epoch-swap rebuilds.  Each reader freezes a Snapshot and
// requires the batched answers to be bit-identical to the scalar answers on
// that same snapshot — the batch execution model's single-epoch guarantee,
// checked from first principles while epochs advance underneath.
func TestDifferentialShardedBatchUnderRebuilds(t *testing.T) {
	g := workload.New(78)
	keys := g.SortedWithDuplicates(6000, 2)
	x := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
	defer x.Close()
	probes := append(g.Lookups(keys, 400), g.Misses(keys, 200)...)
	churn := g.Misses(keys, 500)
	// The live index holds the base and some of the churn: each probe's
	// lower bound lies between the two oracles'.
	without, with := crashtest.Model(keys), crashtest.Model(slices.Sorted(slices.Values(append(slices.Clone(keys), churn...))))
	byValue := make([]int, len(probes))
	for i := range byValue {
		byValue[i] = i
	}
	slices.SortFunc(byValue, func(a, b int) int { return cmp.Compare(probes[a], probes[b]) })

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			x.Insert(churn...)
			x.Sync()
			x.Delete(churn...)
			x.Sync()
		}
	}()

	out := make([]int32, len(probes))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	for round := 0; round < 60; round++ {
		snap := x.Snapshot()
		snap.SearchBatch(probes, out)
		snap.EqualRangeBatch(probes, first, last)
		for i, p := range probes {
			if got, want := int(out[i]), snap.Search(p); got != want {
				t.Fatalf("round %d: SearchBatch(%d)=%d, snapshot scalar=%d", round, p, got, want)
			}
			wf, wl := snap.EqualRange(p)
			if int(first[i]) != wf || int(last[i]) != wl {
				t.Fatalf("round %d: EqualRangeBatch(%d)=[%d,%d), snapshot scalar=[%d,%d)",
					round, p, first[i], last[i], wf, wl)
			}
		}
		// The live index's batch runs against one View too: every answer
		// lies between the oracles', and they rise with the probe value.
		x.LowerBoundBatch(probes, out)
		for j, i := range byValue {
			p := probes[i]
			if got := int(out[i]); got < without.LowerBound(p) || got > with.LowerBound(p) {
				t.Fatalf("round %d: live LowerBoundBatch(%d)=%d, outside [%d,%d]", round, p, got, without.LowerBound(p), with.LowerBound(p))
			}
			if j > 0 && out[i] < out[byValue[j-1]] {
				t.Fatalf("round %d: live LowerBoundBatch(%d)=%d falls below LowerBoundBatch(%d)=%d", round, p, out[i], probes[byValue[j-1]], out[byValue[j-1]])
			}
		}
	}
	close(stop)
	<-done
}

// FuzzDifferentialLowerBound fuzzes arbitrary key sets and probes through
// the full method matrix.  Bytes decode as: first byte = probe count, the
// rest as little-endian uint32 keys.
func FuzzDifferentialLowerBound(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{0})
	f.Add([]byte{8, 42, 0, 0, 0, 42, 0, 0, 0, 42, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		body := data[1:]
		keys := make([]uint32, 0, len(body)/4)
		for i := 0; i+4 <= len(body); i += 4 {
			k := uint32(body[i]) | uint32(body[i+1])<<8 | uint32(body[i+2])<<16 | uint32(body[i+3])<<24
			keys = append(keys, k)
		}
		slices.Sort(keys)
		o := crashtest.Model(keys)
		probes := probeSet(keys, nil)
		for _, kind := range cssidx.Kinds() {
			checkIndex(t, kind.String(), cssidx.New(kind, keys, cssidx.Options{}), o, probes)
		}
		shardOpsOver(t, keys, 3, int64(data[0]))
	})
}

// TestDifferentialNodeSearchTiers runs the differential battery once per
// node-search dispatch tier the host can execute: the whole index surface —
// every method, batch kernels, and the sharded index through generator
// inputs over each key set — must stay bit-identical to the oracle
// regardless of which kernel answers the node visits.  (CI also runs the
// full suite with CSSIDX_NODESEARCH pinned to each portable tier; this
// in-process sweep additionally covers the simd tier on AVX2 runners
// whatever the env says.)
func TestDifferentialNodeSearchTiers(t *testing.T) {
	prev := binsearch.ActiveKernel()
	defer binsearch.SetKernel(prev)
	g := workload.New(909)
	for _, kern := range []binsearch.Kernel{binsearch.KernelScalar, binsearch.KernelSIMD} {
		if !binsearch.SetKernel(kern) {
			continue
		}
		t.Run(kern.String(), func(t *testing.T) {
			for name, keys := range crashtest.AdversarialSets() {
				t.Run(name, func(t *testing.T) { checkEverything(t, keys, nil) })
			}
			for _, n := range []int{100, 4097, 20000} {
				for name, keys := range map[string][]uint32{
					"distinct": g.SortedDistinct(n),
					"dups":     g.SortedWithDuplicates(n, 4),
				} {
					t.Run(name, func(t *testing.T) { checkEverything(t, keys, g) })
				}
			}
		})
	}
}
