package shard

// White-box tests of the mutable delta layer: the fold threshold, the
// position directory's edges and size, absorbs racing readers, and the
// metric catalogue.  Every read surface against a model of the multiset
// lives in crashtest's op generator (ops_test.go).

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx/internal/parallel"
	"cssidx/internal/telemetry"
	"cssidx/internal/workload"
)

// The fold policies the tests pin: the pre-delta behaviour (no delta ever),
// and a delta that only Compact folds.
var (
	foldEveryBatch = deltaPolicy{disabled: true}
	neverFold      = deltaPolicy{minFold: 1 << 30}
)

func TestDeltaFoldThreshold(t *testing.T) {
	g := workload.New(11)
	keys := g.SortedUniform(1000)
	x := NewEqual(keys, 1, 16)
	x.delta = deltaPolicy{foldDenom: 4, minFold: 64}
	defer x.Close()
	// 100 keys: below base/4 = 250, absorbed into the insert run.
	x.Insert(g.SortedUniform(100)...)
	x.Sync()
	if st := x.DeltaStats(); st.Folds != 0 || st.Runs != 1 || st.DeltaKeys != 100 {
		t.Fatalf("small batch should absorb: %+v", st)
	}
	// A base-key delete leaves one tombstone and folds nothing.
	x.Delete(keys[500])
	x.Sync()
	if st := x.DeltaStats(); st.Folds != 0 || st.Tombstones != 1 || st.Runs != 2 || st.BaseKeys != 1000 {
		t.Fatalf("base-key delete should tombstone: %+v", st)
	}
	if x.Search(keys[500]) >= 0 || x.Len() != 1099 {
		t.Fatalf("tombstoned key still visible (Len=%d)", x.Len())
	}
	// A run-key delete shrinks the insert run instead.
	runKey := x.shards[0].cur.Load().ins.keys[7]
	x.Delete(runKey)
	x.Sync()
	if st := x.DeltaStats(); st.Folds != 0 || st.Tombstones != 1 || st.DeltaKeys != 100 {
		t.Fatalf("run-key delete should cancel the insert: %+v", st)
	}
	// Deleting the same base key again, or an absent key, changes nothing.
	x.Delete(keys[500], keys[500]+1)
	x.Sync()
	if st := x.DeltaStats(); st.DeltaKeys != 100 || x.Len() != 1098 {
		t.Fatalf("no-op deletes changed the delta: %+v Len=%d", st, x.Len())
	}
	// The threshold counts ins + tomb: 99 + 1 so far; 75 more tombstones and
	// 75 more inserts reach 250 = base/4 and fold everything in.
	x.Delete(keys[100:175]...)
	x.Sync()
	if st := x.DeltaStats(); st.Folds != 0 || st.Tombstones != 76 || st.DeltaKeys != 175 {
		t.Fatalf("175 delta keys are below the threshold: %+v", st)
	}
	x.Insert(g.SortedUniform(75)...)
	x.Sync()
	if st := x.DeltaStats(); st.Folds != 1 || st.Runs != 0 || st.DeltaKeys != 0 || st.BaseKeys != 1000+99+75-76 {
		t.Fatalf("threshold crossing should fold: %+v", st)
	}
	if st := x.DeltaStats(); st.RunMerges != 0 {
		t.Fatalf("RunMerges=%d, nothing tiers any more", st.RunMerges)
	}
}

// TestDirectoryEdges positions run keys where the directory's arithmetic
// can slip — position 0 and the end of the base, both sides of a bucket
// edge and of a bit-word edge (64 buckets), forty inserts in one bucket (the
// binary-searched bucket) — over bases of 0 to 10,000 keys, and checks the
// snapshot (check) and every read, scalar and batched, against the sorted
// keys.
func TestDirectoryEdges(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 10_000} {
		base := make([]uint32, n)
		for i := range base {
			base[i] = 2*uint32(i) + 2 // key 2p+1 is absent and sorts at position p
		}
		var ins, del []uint32
		for _, p := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, n - 1, n} {
			if p < 0 || p > n {
				continue
			}
			ins = append(ins, 2*uint32(p)+1)
			if p < n {
				del = append(del, base[p])
			}
		}
		for i := 0; i < 40; i++ {
			ins = append(ins, uint32(n)|1) // one bucket, past bucketScanMax
		}
		want := append(slices.Clone(base), ins...)
		slices.Sort(want)
		for _, k := range del {
			if i, ok := slices.BinarySearch(want, k); ok {
				want = slices.Delete(want, i, i+1)
			}
		}
		lowerBound := func(k uint32) int { i, _ := slices.BinarySearch(want, k); return i }
		search := func(k uint32) int {
			if i, ok := slices.BinarySearch(want, k); ok {
				return i
			}
			return -1
		}
		sn := absorb(partition(base, nil, 16)[0], slices.Clone(ins), slices.Clone(del))
		if err := sn.check(0, 1<<32); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		probes := make([]uint32, 2*n+8)
		for i := range probes {
			probes[i] = uint32(i)
		}
		for _, p := range probes {
			f, l := sn.equalRange(p)
			wf, wl := lowerBound(p), lowerBound(p+1)
			if sn.lowerBound(p) != wf || sn.search(p) != search(p) || f != wf || l != wl {
				t.Fatalf("n=%d probe %d: lowerBound %d search %d range [%d,%d), want %d %d [%d,%d)",
					n, p, sn.lowerBound(p), sn.search(p), f, l, wf, search(p), wf, wl)
			}
		}
		v := newView(nil, []*snapshot{sn}, parallel.Options{Workers: 1}, new(sync.Pool))
		lb, first, last := make([]int32, len(probes)), make([]int32, len(probes)), make([]int32, len(probes))
		v.LowerBoundBatch(probes, lb)
		v.SearchBatch(probes, first)
		for i, p := range probes {
			if int(lb[i]) != lowerBound(p) || int(first[i]) != search(p) {
				t.Fatalf("n=%d probe %d: batch lowerBound %d search %d, want %d %d", n, p, lb[i], first[i], lowerBound(p), search(p))
			}
		}
		v.EqualRangeBatch(probes, first, last)
		for i, p := range probes {
			if wf, wl := lowerBound(p), lowerBound(p+1); int(first[i]) != wf || int(last[i]) != wl {
				t.Fatalf("n=%d probe %d: batch range [%d,%d), want [%d,%d)", n, p, first[i], last[i], wf, wl)
			}
		}
	}
}

// TestDirectoryScalesWithDelta pins that an absorb builds a directory sized
// by its delta: over one 4M-key shard, at most a bit and a word count per
// 4,096 base slots (under n/256 bytes) plus one count pair per marked
// bucket — never a count pair per stretch of the base, which would be
// 125 KB for a 32-key delta.
func TestDirectoryScalesWithDelta(t *testing.T) {
	g := workload.New(37)
	keys := g.SortedUniform(4 << 20)
	base := partition(keys, nil, 16)[0]
	for _, d := range []int{32, 1024, 8192} {
		sn := absorb(base, g.Misses(keys, d-d/8), g.Lookups(keys, d/8))
		bound := len(keys)/256 + 8*(sn.deltaKeys()+1)
		if got := 8*len(sn.dir.bits) + 4*(len(sn.dir.below)+len(sn.dir.cum)); got > bound {
			t.Errorf("a %d-key absorb into a %d-key shard builds a %d-byte directory, want at most %d", sn.deltaKeys(), len(keys), got, bound)
		}
	}
}

// TestConcurrentReadersDuringDeltaAbsorbs races scalar, positional, batch,
// and iterator readers against a writer doing small absorbing appends and
// periodic compactions.  Run with -race; correctness invariant per frozen
// View: monotone non-decreasing iteration, Key/LowerBound agreement, and
// batch results matching scalar results on the same View.
func TestConcurrentReadersDuringDeltaAbsorbs(t *testing.T) {
	g := workload.New(17)
	keys := g.SortedWithDuplicates(6000, 2)
	x := NewEqual(keys, 4, 16)
	x.delta = deltaPolicy{foldDenom: 8, minFold: 256}
	defer x.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
		stop.Store(true)
	}

	// Writer: absorbing appends with a Compact every few batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(18))
		for i := 0; i < 60 && !stop.Load(); i++ {
			ins := make([]uint32, 40)
			for j := range ins {
				ins[j] = uint32(rng.Int63n(math.MaxUint32))
			}
			x.Insert(ins...)
			x.Sync()
			if i%8 == 7 {
				x.Compact()
			}
		}
		stop.Store(true)
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				v := x.Snapshot()
				n := v.Len()
				if n == 0 {
					continue
				}
				// Iterator order and Key agreement over a random subrange.
				lo := uint32(rng.Int63n(math.MaxUint32))
				hi := lo + uint32(rng.Int63n(1<<28))
				it := v.Range(lo, hi)
				prev, first := uint32(0), true
				for {
					k, pos, ok := it.Next()
					if !ok {
						break
					}
					if !first && k < prev {
						fail("iterator went backwards under concurrent absorbs")
						return
					}
					if vk := v.Key(pos); vk != k {
						fail("Key(pos) disagrees with iterator")
						return
					}
					prev, first = k, false
				}
				// Batch vs scalar on the same frozen view.
				probes := make([]uint32, 64)
				for j := range probes {
					probes[j] = uint32(rng.Int63n(math.MaxUint32))
				}
				res := make([]int32, len(probes))
				v.LowerBoundBatch(probes, res)
				for j, p := range probes {
					if int(res[j]) != v.LowerBound(p) {
						fail("batch lower bound diverges from scalar on one view")
						return
					}
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if x.DeltaStats().Appends == 0 {
		t.Fatal("stress run never exercised the delta absorb path")
	}
}

// TestConcurrentReadersDuringDeleteAbsorbs is the delete leg of the race
// stress: readers on frozen Views while a writer inserts, deletes run keys
// (cancelling inserts) and base keys (leaving tombstones), and Compacts.
// Per View: monotone iteration whose count is Len, Key/LowerBound agreement,
// and batch == scalar.  Run with -race.
func TestConcurrentReadersDuringDeleteAbsorbs(t *testing.T) {
	g := workload.New(19)
	keys := g.SortedWithDuplicates(6000, 2)
	x := NewEqual(keys, 4, 16)
	x.delta = deltaPolicy{foldDenom: 8, minFold: 256}
	defer x.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
		stop.Store(true)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(20))
		wg := workload.New(20)
		var last []uint32
		for i := 0; i < 80 && !stop.Load(); i++ {
			ins := make([]uint32, 40)
			for j := range ins {
				ins[j] = uint32(rng.Int63n(math.MaxUint32))
			}
			x.Insert(ins...)
			del := append(slices.Clone(last[:len(last)/2]), wg.Lookups(keys, 20)...)
			x.Delete(del...)
			x.Sync()
			last = ins
			if i%16 == 15 {
				x.Compact()
			}
		}
		stop.Store(true)
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			rg := workload.New(seed)
			for !stop.Load() {
				v := x.Snapshot()
				// A whole-view walk every so often: the count must be Len.
				lo, hi, whole := uint32(rng.Int63n(math.MaxUint32)), uint32(0), rng.Intn(8) == 0
				it := v.RangeAll()
				if !whole {
					hi = lo + uint32(rng.Int63n(1<<28))
					it = v.Range(lo, hi)
				}
				count, prev := 0, uint32(0)
				for {
					k, pos, ok := it.Next()
					if !ok {
						break
					}
					if count > 0 && k < prev {
						fail("iterator went backwards under concurrent delete absorbs")
						return
					}
					if v.Key(pos) != k {
						fail("Key(pos) disagrees with iterator")
						return
					}
					if lb := v.LowerBound(k); lb > pos || v.Key(lb) != k {
						fail("LowerBound(k) is not the first position holding k")
						return
					}
					prev = k
					count++
				}
				if whole && count != v.Len() {
					fail("iterated count differs from Len")
					return
				}
				probes := append(rg.Lookups(keys, 48), uint32(rng.Int63n(math.MaxUint32)), prev)
				res, first, last := make([]int32, len(probes)), make([]int32, len(probes)), make([]int32, len(probes))
				v.SearchBatch(probes, res)
				v.EqualRangeBatch(probes, first, last)
				for j, p := range probes {
					f, l := v.EqualRange(p)
					if int(res[j]) != v.Search(p) || int(first[j]) != f || int(last[j]) != l {
						fail("batch result diverges from scalar on one view")
						return
					}
				}
			}
		}(int64(200 + r))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if st := x.DeltaStats(); st.Appends == 0 || st.Folds == 0 {
		t.Fatalf("stress run exercised absorbs=%d folds=%d", st.Appends, st.Folds)
	}
}

// TestRegisteredSeries pins the shard layer's metric catalogue: the swap
// counters, the per-outcome swap-cost histograms and the two lag gauges are
// scraped under these names, the gauges follow the outstanding delta, and the
// undivided swap histogram is gone.
func TestRegisteredSeries(t *testing.T) {
	for _, name := range []string{"shard_absorbs_total", "shard_folds_total", "shard_batch_probes_total", "shard_delta_keys", "shard_tombstones"} {
		if _, ok := telemetry.Default.Value(name); !ok {
			t.Errorf("series %s not registered", name)
		}
	}
	var scrape bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`shard_epoch_swap_ns_count{outcome="absorb"}`, `shard_epoch_swap_ns_count{outcome="fold"}`} {
		if !strings.Contains(scrape.String(), want) {
			t.Errorf("scrape lacks %s", want)
		}
	}
	if strings.Contains(scrape.String(), "shard_epoch_swap_ns_count ") {
		t.Error("the undivided shard_epoch_swap_ns histogram is still registered")
	}

	keys := workload.New(29).SortedUniform(2000)
	x := NewEqual(keys, 2, 16)
	defer x.Close()
	x.delta = neverFold
	delta0, tomb0 := gaugeDeltaKeys.Value(), gaugeTombstones.Value()
	x.Insert(1, 2, 3)
	x.Delete(keys[10], keys[20])
	x.Sync()
	if d, tb := gaugeDeltaKeys.Value()-delta0, gaugeTombstones.Value()-tomb0; d != 5 || tb != 2 {
		t.Fatalf("gauges moved by (%d,%d) for 3 inserts and 2 tombstones", d, tb)
	}
	x.Compact()
	if d, tb := gaugeDeltaKeys.Value()-delta0, gaugeTombstones.Value()-tomb0; d != 0 || tb != 0 {
		t.Fatalf("gauges read (%d,%d) above their start after Compact", d, tb)
	}
}
