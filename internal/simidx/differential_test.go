package simidx_test

// Differential test harness: every index method in the repository — the
// real implementations behind the public API, the address-trace simulators
// of this package, and the new concurrent ShardedIndex — is driven against
// a sorted-slice oracle on random and adversarial key sets.  The sims are
// required by their package contract to return the same answers as the real
// structures; this harness enforces that contract and the public one from a
// single source of truth, extending the model-vs-simulation cross-checks of
// crossvalidate_test.go down to exact per-probe equality.

import (
	"math"
	"slices"
	"sort"
	"testing"

	"cssidx"
	"cssidx/internal/binsearch"
	"cssidx/internal/cachesim"
	"cssidx/internal/mem"
	"cssidx/internal/parallel"
	"cssidx/internal/shard"
	"cssidx/internal/simidx"
	"cssidx/internal/workload"
)

// sliceOracle answers every query by definition on a sorted slice.
type sliceOracle struct{ keys []uint32 }

func (o sliceOracle) lowerBound(k uint32) int {
	return sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= k })
}
func (o sliceOracle) search(k uint32) int {
	if i := o.lowerBound(k); i < len(o.keys) && o.keys[i] == k {
		return i
	}
	return -1
}
func (o sliceOracle) equalRange(k uint32) (int, int) {
	first := o.lowerBound(k)
	last := first
	for last < len(o.keys) && o.keys[last] == k {
		last++
	}
	return first, last
}

// adversarialSets are the key sets that historically break index edge
// cases: empty, single key, all-duplicates, keys at the uint32 extremes,
// and runs straddling node boundaries.
func adversarialSets() map[string][]uint32 {
	allDup := make([]uint32, 100)
	for i := range allDup {
		allDup[i] = 42
	}
	runs := make([]uint32, 0, 96)
	for v := uint32(1); v <= 6; v++ {
		for i := 0; i < 16; i++ { // run length = node size
			runs = append(runs, v*1000)
		}
	}
	return map[string][]uint32{
		"empty":      {},
		"single":     {7},
		"single-max": {math.MaxUint32},
		"all-dup":    allDup,
		"extremes":   {0, 0, 1, 2, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32},
		"node-runs":  runs,
	}
}

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
func checkIndex(t *testing.T, name string, idx cssidx.Index, o sliceOracle, probes []uint32) {
	t.Helper()
	ord, ordered := idx.(cssidx.OrderedIndex)
	for _, p := range probes {
		if got, want := idx.Search(p), o.search(p); got != want {
			t.Fatalf("%s: Search(%d)=%d want %d", name, p, got, want)
		}
		if !ordered {
			continue
		}
		if got, want := ord.LowerBound(p), o.lowerBound(p); got != want {
			t.Fatalf("%s: LowerBound(%d)=%d want %d", name, p, got, want)
		}
		gf, gl := ord.EqualRange(p)
		wf, wl := o.equalRange(p)
		if gf != wf || gl != wl {
			t.Fatalf("%s: EqualRange(%d)=[%d,%d) want [%d,%d)", name, p, gf, gl, wf, wl)
		}
	}
	checkBatcher(t, name+"/batch", batchSurface{b: cssidx.AsBatch(idx)}, ordered, o, probes)
	if ordered {
		checkBatcher(t, name+"/sorted-batch", batchSurface{b: cssidx.NewSortedBatch(ord)}, true, o, probes)
		// The parallel engine at its calibrated span must stay
		// bit-identical too; the root package's
		// TestNewParallelMatchesScalarEveryKind forces its fan-out at
		// pinned tiny spans over these same adversarial key sets.
		par := cssidx.NewParallel(ord, cssidx.ParallelOptions{Workers: 4})
		checkBatcher(t, name+"/parallel-batch", batchSurface{b: par}, true, o, probes)
	}
}

// batchSurface is the common face of AsBatch results and SortedBatch.
type batchSurface struct{ b cssidx.BatchIndex }

// checkBatcher verifies a batch surface against the oracle at several chunk
// sizes, including chunks that are not multiples of the lockstep width.
func checkBatcher(t *testing.T, name string, s batchSurface, ordered bool, o sliceOracle, probes []uint32) {
	t.Helper()
	bord, _ := s.b.(cssidx.BatchOrderedIndex)
	out := make([]int32, len(probes))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	for _, chunk := range []int{len(probes), 7, 64} {
		if chunk <= 0 {
			continue
		}
		for base := 0; base < len(probes); base += chunk {
			end := base + chunk
			if end > len(probes) {
				end = len(probes)
			}
			s.b.SearchBatch(probes[base:end], out[base:end])
			if ordered && bord != nil {
				bord.EqualRangeBatch(probes[base:end], first[base:end], last[base:end])
			}
		}
		for i, p := range probes {
			if got, want := int(out[i]), o.search(p); got != want {
				t.Fatalf("%s chunk=%d: SearchBatch(%d)=%d want %d", name, chunk, p, got, want)
			}
			if !ordered || bord == nil {
				continue
			}
			wf, wl := o.equalRange(p)
			if int(first[i]) != wf || int(last[i]) != wl {
				t.Fatalf("%s chunk=%d: EqualRangeBatch(%d)=[%d,%d) want [%d,%d)",
					name, chunk, p, first[i], last[i], wf, wl)
			}
		}
		if !ordered || bord == nil {
			continue
		}
		for base := 0; base < len(probes); base += chunk {
			end := base + chunk
			if end > len(probes) {
				end = len(probes)
			}
			bord.LowerBoundBatch(probes[base:end], out[base:end])
		}
		for i, p := range probes {
			if got, want := int(out[i]), o.lowerBound(p); got != want {
				t.Fatalf("%s chunk=%d: LowerBoundBatch(%d)=%d want %d", name, chunk, p, got, want)
			}
		}
	}
}

// checkSim verifies one simulated index against the oracle: Probe's Index
// field is the lower bound for ordered methods and the hit position (or -1)
// for hash.
func checkSim(t *testing.T, s simidx.Sim, o sliceOracle, probes []uint32) {
	t.Helper()
	_, isHash := s.(*simidx.Hash)
	for _, p := range probes {
		got := s.Probe(nil, p).Index
		if isHash {
			if want := o.search(p); got != want {
				t.Fatalf("sim %s: Probe(%d)=%d want %d", s.Name(), p, got, want)
			}
		} else if want := o.lowerBound(p); got != want {
			t.Fatalf("sim %s: Probe(%d)=%d want %d", s.Name(), p, got, want)
		}
	}
}

// checkSharded verifies the concurrent sharded index against the oracle,
// scalar and batched in both probe orders.
func checkSharded(t *testing.T, keys []uint32, o sliceOracle, probes []uint32, shards int) {
	t.Helper()
	x := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: shards})
	defer x.Close()
	for _, p := range probes {
		if got, want := x.Search(p), o.search(p); got != want {
			t.Fatalf("sharded(%d): Search(%d)=%d want %d", shards, p, got, want)
		}
		if got, want := x.LowerBound(p), o.lowerBound(p); got != want {
			t.Fatalf("sharded(%d): LowerBound(%d)=%d want %d", shards, p, got, want)
		}
		gf, gl := x.EqualRange(p)
		wf, wl := o.equalRange(p)
		if gf != wf || gl != wl {
			t.Fatalf("sharded(%d): EqualRange(%d)=[%d,%d) want [%d,%d)", shards, p, gf, gl, wf, wl)
		}
	}
	// par forces the fan-out at tiny spans, so it is real even on one core.
	par := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: shards})
	par.SetParallel(parallel.Options{Workers: 4, MinBatchPerWorker: 16})
	defer par.Close()
	input, keyOrdered := probeOrders(probes)
	for _, ix := range []*cssidx.ShardedIndex[uint32]{x, par} {
		checkShardedBatches(t, ix, o, input, shards, false)
		checkShardedBatches(t, ix, o, keyOrdered, shards, true)
	}
	// Ascend over the full range must replay the oracle slice exactly.
	i := 0
	x.Ascend(0, math.MaxUint32, func(pos int, key uint32) bool {
		if pos != i || key != o.keys[i] {
			t.Fatalf("sharded(%d): Ascend at %d got (%d,%d)", shards, i, pos, key)
		}
		i++
		return true
	})
	// MaxUint32 keys sit outside the half-open Ascend range; account for them.
	f, l := o.equalRange(math.MaxUint32)
	if i != len(o.keys)-(l-f) {
		t.Fatalf("sharded(%d): Ascend yielded %d keys, oracle has %d below max", shards, i, len(o.keys)-(l-f))
	}
}

// probeOrders derives one batch per probe order from probes: input drops
// repeated probes, so the engine's sampler sees no repeat and descends it in
// input order at any length; keyOrdered interleaves probes with probes[0]
// up to at least 128 probes, so half the sample repeats one key and it
// descends sorted and deduplicated.
func probeOrders(probes []uint32) (input, keyOrdered []uint32) {
	seen := make(map[uint32]bool, len(probes))
	for _, p := range probes {
		if !seen[p] {
			seen[p] = true
			input = append(input, p)
		}
	}
	keyOrdered = make([]uint32, max(2*len(probes), 128))
	for i := range keyOrdered {
		keyOrdered[i] = probes[0]
		if i%2 == 1 {
			keyOrdered[i] = probes[i/2%len(probes)]
		}
	}
	return input, keyOrdered
}

// checkShardedBatches verifies the sharded batch surface (and the Snapshot's)
// against the oracle on one batch, first asserting the probe order the
// engine's sampler picks for it (sorted = key-ordered).
func checkShardedBatches(t *testing.T, x *cssidx.ShardedIndex[uint32], o sliceOracle, probes []uint32, shards int, sorted bool) {
	t.Helper()
	if got := shard.ChooseKeyOrder(probes); got != sorted {
		t.Fatalf("sharded(%d): batch of %d probes key-ordered %v, want %v", shards, len(probes), got, sorted)
	}
	out := make([]int32, len(probes))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	x.SearchBatch(probes, out)
	x.EqualRangeBatch(probes, first, last)
	for i, p := range probes {
		if got, want := int(out[i]), o.search(p); got != want {
			t.Fatalf("sharded(%d,sorted=%v): SearchBatch(%d)=%d want %d", shards, sorted, p, got, want)
		}
		wf, wl := o.equalRange(p)
		if int(first[i]) != wf || int(last[i]) != wl {
			t.Fatalf("sharded(%d,sorted=%v): EqualRangeBatch(%d)=[%d,%d) want [%d,%d)",
				shards, sorted, p, first[i], last[i], wf, wl)
		}
	}
	snap := x.Snapshot()
	snap.LowerBoundBatch(probes, out)
	for i, p := range probes {
		if got, want := int(out[i]), o.lowerBound(p); got != want {
			t.Fatalf("sharded(%d,sorted=%v): snapshot LowerBoundBatch(%d)=%d want %d", shards, sorted, p, got, want)
		}
	}
}

// checkEverything drives every method over one key set.
func checkEverything(t *testing.T, keys []uint32, g *workload.Gen) {
	t.Helper()
	o := sliceOracle{keys: keys}
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
		checkSharded(t, keys, o, probes, shards)
	}
}

func TestDifferentialAdversarial(t *testing.T) {
	for name, keys := range adversarialSets() {
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

// TestDifferentialShardedMutations drives random Insert/Delete batches
// through the sharded index and a mirrored oracle, comparing after every
// Sync — the serving layer's §2.3 rebuild cycle against first principles.
func TestDifferentialShardedMutations(t *testing.T) {
	g := workload.New(77)
	keys := g.SortedWithDuplicates(4000, 3)
	x := cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: 4})
	defer x.Close()
	ok := slices.Clone(keys)
	for round := 0; round < 15; round++ {
		ins := g.Misses(ok, 80)
		ins = append(ins, g.Lookups(ok, 40)...) // duplicate existing keys too
		var del []uint32
		del = append(del, g.Lookups(ok, 60)...)
		del = append(del, g.Misses(ok, 10)...) // deletes of absent keys: no-ops
		x.Insert(ins...)
		x.Delete(del...)
		x.Sync()
		ok = append(ok, ins...)
		slices.Sort(ok)
		for _, k := range del {
			if i, found := slices.BinarySearch(ok, k); found {
				ok = append(ok[:i], ok[i+1:]...)
			}
		}
		o := sliceOracle{keys: ok}
		probes := probeSet(ok, g)
		for _, p := range probes {
			if got, want := x.LowerBound(p), o.lowerBound(p); got != want {
				t.Fatalf("round %d: LowerBound(%d)=%d want %d", round, p, got, want)
			}
			if got, want := x.Search(p), o.search(p); got != want {
				t.Fatalf("round %d: Search(%d)=%d want %d", round, p, got, want)
			}
		}
		// The batch surface must track the mutated state identically.
		out := make([]int32, len(probes))
		x.LowerBoundBatch(probes, out)
		for i, p := range probes {
			if got, want := int(out[i]), o.lowerBound(p); got != want {
				t.Fatalf("round %d: LowerBoundBatch(%d)=%d want %d", round, p, got, want)
			}
		}
		if x.Len() != len(ok) {
			t.Fatalf("round %d: Len=%d want %d", round, x.Len(), len(ok))
		}
	}
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

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		churn := g.Misses(keys, 500)
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
		// The live index's batch runs against one View too: its answers must
		// match some self-consistent state, which scalar spot checks confirm
		// via the keys the writer never touches.
		x.LowerBoundBatch(probes, out)
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
		o := sliceOracle{keys: keys}
		probes := probeSet(keys, nil)
		for _, kind := range cssidx.Kinds() {
			checkIndex(t, kind.String(), cssidx.New(kind, keys, cssidx.Options{}), o, probes)
		}
		checkSharded(t, keys, o, probes, 3)
	})
}

// TestDifferentialNodeSearchTiers runs the differential battery once per
// node-search dispatch tier the host can execute: the whole index surface —
// every method, batch kernels, sharded batches — must stay bit-identical to
// the oracle regardless of which kernel answers the node visits.  (CI also
// runs the full suite with CSSIDX_NODESEARCH pinned to each portable tier;
// this in-process sweep additionally covers the simd tier on AVX2 runners
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
			for name, keys := range adversarialSets() {
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
