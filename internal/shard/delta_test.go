package shard

// Differential tests for the mutable delta layer: every read surface over a
// delta-carrying index must be bit-identical to the same reads over an index
// that folds every batch into a rebuilt base (the pre-delta behaviour), which
// in turn is checked against the plain sorted-slice oracle.  The delta layer
// is an internal representation change only — positions, iteration order,
// and batch results may not move.

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx/internal/telemetry"
	"cssidx/internal/workload"
)

// foldEveryBatch is the pre-delta behaviour: no delta ever.
var foldEveryBatch = deltaPolicy{disabled: true}

// smallBatchPolicy keeps batches in the delta long enough to exercise run
// growth, cancellation and tombstones, and folds every few rounds in small
// tests; neverFold only folds on Compact.
var (
	smallBatchPolicy = deltaPolicy{foldDenom: 4, minFold: 64}
	neverFold        = deltaPolicy{minFold: 1 << 30}
)

// checkDelta verifies the structural invariants of one snapshot's delta —
// the shard-side counterpart of mmdb's checkRuns: both runs sorted and
// positioned where they claim, tombstones a sub-multiset of the base covering
// each key's FIRST occurrences, each directory the exact cumulative count by
// base position, and total reconciled.
func checkDelta(t *testing.T, sn *snapshot) {
	t.Helper()
	n := len(sn.keys)
	lowerBound := func(k uint32) int {
		return sort.Search(n, func(i int) bool { return sn.keys[i] >= k })
	}
	for name, r := range map[string]*run{"ins": &sn.ins, "tomb": &sn.tomb} {
		if len(r.pos) != len(r.keys) {
			t.Fatalf("%s: %d keys, %d positions", name, len(r.keys), len(r.pos))
		}
		if !slices.IsSorted(r.keys) {
			t.Fatalf("%s: keys not sorted", name)
		}
	}
	if sn.deltaKeys() == 0 {
		if sn.dir != nil {
			t.Fatal("empty delta carries a directory")
		}
	} else {
		if len(sn.dir) != 2*(n>>dirShift+2) {
			t.Fatalf("directory has %d entries over a %d-key base", len(sn.dir), n)
		}
		for b := 0; 2*b < len(sn.dir); b++ {
			for side, r := range []*run{&sn.ins, &sn.tomb} {
				want := sort.Search(len(r.pos), func(i int) bool { return int(r.pos[i]) >= b<<dirShift })
				if got := int(sn.dir[2*b+side]); got != want {
					t.Fatalf("dir[%d] side %d = %d, %d run keys sit below base position %d", b, side, got, want, b<<dirShift)
				}
			}
		}
		if i, tb := sn.dir[len(sn.dir)-2], sn.dir[len(sn.dir)-1]; int(i) != len(sn.ins.keys) || int(tb) != len(sn.tomb.keys) {
			t.Fatalf("last directory pair (%d,%d), runs hold (%d,%d)", i, tb, len(sn.ins.keys), len(sn.tomb.keys))
		}
	}
	for i, k := range sn.ins.keys {
		if got, want := int(sn.ins.pos[i]), lowerBound(k); got != want {
			t.Fatalf("ins[%d]=%d positioned at %d, base lower bound is %d", i, k, got, want)
		}
	}
	for i, k := range sn.tomb.keys {
		first := i
		for first > 0 && sn.tomb.keys[first-1] == k {
			first--
		}
		want := lowerBound(k) + i - first
		if got := int(sn.tomb.pos[i]); got != want || want >= n || sn.keys[want] != k {
			t.Fatalf("tomb[%d]=%d positioned at %d, want base occurrence %d", i, k, got, want)
		}
	}
	if want := n + len(sn.ins.keys) - len(sn.tomb.keys); sn.total != want {
		t.Fatalf("total=%d, base %d + ins %d - tomb %d = %d", sn.total, n, len(sn.ins.keys), len(sn.tomb.keys), want)
	}
}

// checkDeltaAll runs checkDelta over every shard's current snapshot.
func checkDeltaAll(t *testing.T, x *Index) {
	t.Helper()
	for _, s := range x.shards {
		checkDelta(t, s.cur.Load())
	}
}

// enqueueTogether puts ins and del into ONE drained batch per shard: with
// every shard lock held the rebuilder cannot drain between the two, so the
// "inserts before deletes within one batch" rule is exercised for certain
// (Insert followed by Delete may be drained apart).
func enqueueTogether(x *Index, ins, del []uint32) {
	for _, s := range x.shards {
		s.mu.Lock()
	}
	for _, k := range ins {
		s := x.shards[x.shardFor(k)]
		s.insPend = append(s.insPend, k)
	}
	for _, k := range del {
		s := x.shards[x.shardFor(k)]
		s.delPend = append(s.delPend, k)
	}
	for _, s := range x.shards {
		s.mu.Unlock()
	}
	x.Sync()
}

// checkDeltaDifferential compares a delta-carrying index against a
// fold-every-batch twin on every surface: scalar reads, positional access,
// iterators, and the three batch kernels in both probe orders.
func checkDeltaDifferential(t *testing.T, x, rebuilt *Index, probes []uint32) {
	t.Helper()
	if got, want := x.Len(), rebuilt.Len(); got != want {
		t.Fatalf("Len=%d rebuilt=%d", got, want)
	}
	for _, p := range probes {
		if got, want := x.Search(p), rebuilt.Search(p); got != want {
			t.Fatalf("Search(%d)=%d rebuilt=%d", p, got, want)
		}
		if got, want := x.LowerBound(p), rebuilt.LowerBound(p); got != want {
			t.Fatalf("LowerBound(%d)=%d rebuilt=%d", p, got, want)
		}
		gf, gl := x.EqualRange(p)
		wf, wl := rebuilt.EqualRange(p)
		if gf != wf || gl != wl {
			t.Fatalf("EqualRange(%d)=[%d,%d) rebuilt=[%d,%d)", p, gf, gl, wf, wl)
		}
	}
	v, rv := x.Snapshot(), rebuilt.Snapshot()
	// Positional access via rank-select.
	for pos := 0; pos < v.Len(); pos++ {
		if got, want := v.Key(pos), rv.Key(pos); got != want {
			t.Fatalf("Key(%d)=%d rebuilt=%d", pos, got, want)
		}
	}
	// Merging iterator: full, a subrange, and subranges that start mid-shard
	// exactly on a tombstoned key (the cursors must land past its tombstones).
	checkIterEqual(t, v.RangeAll(), rv.RangeAll())
	if v.Len() > 2 {
		lo, hi := v.Key(v.Len()/4), v.Key(3*v.Len()/4)
		checkIterEqual(t, v.Range(lo, hi), rv.Range(lo, hi))
	}
	for _, sn := range v.snaps {
		if tomb := sn.tomb.keys; len(tomb) > 0 {
			lo := tomb[len(tomb)/2]
			checkIterEqual(t, v.Range(lo, lo+1<<24), rv.Range(lo, lo+1<<24))
		}
	}
	// Batch kernels across probe orderings and the merged key stream.
	batchProbes := append(slices.Clone(probes), rv.snapKeys()...)
	for _, sn := range v.snaps {
		batchProbes = append(batchProbes, sn.tomb.keys...) // deleted keys, live or not
	}
	input, keyOrdered := pathBatches(t, batchProbes)
	for _, probes := range [][]uint32{input, keyOrdered} {
		n := len(probes)
		gotLB, wantLB := make([]int32, n), make([]int32, n)
		v.LowerBoundBatch(probes, gotLB)
		rv.LowerBoundBatch(probes, wantLB)
		if !slices.Equal(gotLB, wantLB) {
			t.Fatalf("LowerBoundBatch (key order %v) diverges from rebuilt twin", ChooseKeyOrder(probes))
		}
		gotS, wantS := make([]int32, n), make([]int32, n)
		v.SearchBatch(probes, gotS)
		rv.SearchBatch(probes, wantS)
		if !slices.Equal(gotS, wantS) {
			t.Fatalf("SearchBatch (key order %v) diverges from rebuilt twin", ChooseKeyOrder(probes))
		}
		gotF, gotL := make([]int32, n), make([]int32, n)
		wantF, wantL := make([]int32, n), make([]int32, n)
		v.EqualRangeBatch(probes, gotF, gotL)
		rv.EqualRangeBatch(probes, wantF, wantL)
		if !slices.Equal(gotF, wantF) || !slices.Equal(gotL, wantL) {
			t.Fatalf("EqualRangeBatch (key order %v) diverges from rebuilt twin", ChooseKeyOrder(probes))
		}
	}
}

func checkIterEqual(t *testing.T, got, want *RangeIter) {
	t.Helper()
	for {
		gk, gp, gok := got.Next()
		wk, wp, wok := want.Next()
		if gok != wok || gk != wk || gp != wp {
			t.Fatalf("iterator diverges: got (%d,%d,%v) want (%d,%d,%v)", gk, gp, gok, wk, wp, wok)
		}
		if !gok {
			return
		}
	}
}

// snapKeys flattens the view's content for probe generation in tests.
func (v *View) snapKeys() []uint32 {
	var out []uint32
	for _, sn := range v.snaps {
		out = append(out, sn.mergedKeys()...)
	}
	return out
}

func TestDeltaDifferentialVsRebuilt(t *testing.T) {
	g := workload.New(7)
	rng := rand.New(rand.NewSource(7))
	keys := g.SortedWithDuplicates(4000, 3)
	for _, pol := range []deltaPolicy{{}, smallBatchPolicy, neverFold} {
		x := NewEqual(keys, 4, 16)
		x.delta = pol
		rebuilt := NewEqual(keys, 4, 16)
		rebuilt.delta = foldEveryBatch
		o := &oracle{keys: slices.Clone(keys)}
		for round := 0; round < 24; round++ {
			switch {
			case round%11 == 10:
				// Occasional deletes: one of a resident key, one (almost
				// certainly) absent.
				del := []uint32{o.keys[rng.Intn(len(o.keys))], uint32(rng.Int63n(math.MaxUint32))}
				x.Delete(del...)
				rebuilt.Delete(del...)
				o.delete(del...)
			case round%7 == 6:
				x.Compact()
			default:
				ins := make([]uint32, 20+rng.Intn(60))
				for i := range ins {
					// Half collide with existing keys, half are fresh.
					if i%2 == 0 {
						ins[i] = o.keys[rng.Intn(len(o.keys))]
					} else {
						ins[i] = uint32(rng.Int63n(math.MaxUint32))
					}
				}
				x.Insert(ins...)
				rebuilt.Insert(ins...)
				o.insert(ins...)
			}
			x.Sync()
			rebuilt.Sync()
			probes := probesFor(o.keys, g)
			checkDeltaAll(t, x)
			checkDeltaDifferential(t, x, rebuilt, probes)
			checkAgainstOracle(t, x, o, probes)
		}
		if x.DeltaStats().Appends == 0 && !pol.disabled {
			t.Fatal("differential run never exercised the delta path")
		}
		x.Close()
		rebuilt.Close()
	}
}

// TestDeleteAbsorbDifferential drives rounds of mixed batches through a
// delta-carrying index and a fold-every-batch twin: fresh keys, fresh
// duplicates and re-inserted base keys; deletes of a key inserted last round,
// of a key inserted in the SAME drained batch, of base keys once and more
// times than they occur, of duplicated base keys, and of absent keys.  After
// every Sync the delta's invariants hold and every surface matches the twin
// and the sorted-slice oracle.
func TestDeleteAbsorbDifferential(t *testing.T) {
	for _, pol := range []deltaPolicy{{}, smallBatchPolicy, neverFold} {
		g := workload.New(23)
		rng := rand.New(rand.NewSource(23))
		keys := g.SortedWithDuplicates(4000, 3)
		x := NewEqual(keys, 4, 16)
		x.delta = pol
		rebuilt := NewEqual(keys, 4, 16)
		rebuilt.delta = foldEveryBatch
		o := &oracle{keys: slices.Clone(keys)}
		fresh := func() uint32 { return uint32(rng.Int63n(math.MaxUint32)) }
		resident := func() uint32 { return o.keys[rng.Intn(len(o.keys))] }
		var lastIns []uint32
		sawTombstones, sawCancel := false, false
		for round := 0; round < 30; round++ {
			var ins, del []uint32
			for i := 0; i < 12; i++ {
				f := fresh()
				ins = append(ins, fresh(), f, f, resident())
			}
			// Same batch: delete two of the keys this very batch inserts.
			del = append(del, ins[0], ins[1])
			// Last round's inserts: still in the insert run unless a fold
			// moved them into the base.
			if len(lastIns) > 0 {
				del = append(del, lastIns[0], lastIns[5], lastIns[5])
			}
			// Base keys: once, and more times than the key occurs.
			del = append(del, resident())
			k := resident()
			first, last := o.equalRange(k)
			for i := 0; i < last-first+2; i++ {
				del = append(del, k)
			}
			// A duplicated key, one occurrence at a time; absent keys.
			for i := 1; i < len(o.keys); i++ {
				if o.keys[i] == o.keys[i-1] {
					del = append(del, o.keys[i])
					break
				}
			}
			del = append(del, fresh(), fresh())

			before := x.DeltaStats()
			if round%3 == 0 {
				enqueueTogether(x, slices.Clone(ins), slices.Clone(del))
			} else {
				x.Insert(ins...)
				x.Delete(del...)
				x.Sync()
			}
			rebuilt.Insert(ins...)
			rebuilt.Delete(del...)
			rebuilt.Sync()
			o.insert(ins...)
			o.delete(del...)
			lastIns = ins
			if round%10 == 9 {
				x.Compact()
			}

			after := x.DeltaStats()
			sawTombstones = sawTombstones || after.Tombstones > 0
			sawCancel = sawCancel || (after.Folds == before.Folds && after.DeltaKeys-after.Tombstones < before.DeltaKeys-before.Tombstones+len(ins))
			checkDeltaAll(t, x)
			probes := append(probesFor(o.keys, g), del...)
			checkDeltaDifferential(t, x, rebuilt, probes)
			checkAgainstOracle(t, x, o, probes)
		}
		if !sawTombstones || !sawCancel {
			t.Fatalf("policy %+v: tombstones seen %v, insert cancellation seen %v", pol, sawTombstones, sawCancel)
		}
		x.Close()
		rebuilt.Close()
	}
}

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

func TestDeltaDisabledNeverAbsorbs(t *testing.T) {
	g := workload.New(13)
	x := NewEqual(g.SortedUniform(500), 2, 16)
	x.delta = foldEveryBatch
	defer x.Close()
	for i := 0; i < 5; i++ {
		x.Insert(g.SortedUniform(10)...)
		x.Sync()
	}
	st := x.DeltaStats()
	if st.Appends != 0 || st.Runs != 0 || st.DeltaKeys != 0 {
		t.Fatalf("disabled policy still built delta runs: %+v", st)
	}
	if got, want := x.Len(), 550; got != want {
		t.Fatalf("Len=%d want %d", got, want)
	}
	// Deletes of absent keys net to nothing: no absorb, no fold, no swap.
	epochs := x.Epochs()
	for k := uint32(0); k < 100; k++ {
		for _, absent := range []uint32{k, math.MaxUint32 - k} { // one per shard
			if x.Search(absent) < 0 {
				x.Delete(absent)
			}
		}
	}
	x.Sync()
	if after := x.DeltaStats(); after != st {
		t.Fatalf("absent-key deletes were published: %+v, was %+v", after, st)
	}
	if !slices.Equal(x.Epochs(), epochs) || x.Len() != 550 {
		t.Fatalf("absent-key deletes moved epochs %v → %v, Len=%d", epochs, x.Epochs(), x.Len())
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

// FuzzDeltaOps decodes bytes into an operation sequence — insert, delete,
// insert-and-delete in one drained batch, sync, compact, snapshot-and-read —
// over a small key space (so runs, tombstones and cancellations collide
// constantly) and checks the index against the sorted-slice oracle and the
// delta's invariants.  Byte 0 picks the fold policy.  A delete is synced at
// once: a delete drained in the same batch as a LATER insert of its key would
// apply after it (inserts go first within a batch), which no oracle can
// predict from the call order.
func FuzzDeltaOps(f *testing.F) {
	f.Add([]byte{0, 0, 9, 1, 9, 5, 2, 7, 7, 1, 9, 4})
	f.Add([]byte{1, 0, 200, 0, 201, 1, 200, 1, 200, 1, 200, 3, 5, 0, 3, 2, 3, 3, 4})
	f.Add([]byte{2, 2, 40, 2, 41, 1, 40, 0, 40, 4, 1, 17, 1, 17, 1, 17, 5, 4})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 2, 0, 1, 255, 0, 255, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 96 {
			t.Skip()
		}
		pol := []deltaPolicy{{}, {foldDenom: 8, minFold: 16}, neverFold}[int(data[0])%3]
		// The base holds every multiple of 3 below 768, twice.
		var keys []uint32
		for k := uint32(0); k < 768; k += 3 {
			keys = append(keys, k, k)
		}
		x := NewEqual(keys, 3, 4)
		x.delta = pol
		defer x.Close()
		o := &oracle{keys: slices.Clone(keys)}
		check := func() {
			x.Sync()
			checkDeltaAll(t, x)
			probes := []uint32{0, 1, 2, 3, 765, 766, 767, 768, math.MaxUint32}
			for _, b := range data {
				probes = append(probes, 3*uint32(b), 3*uint32(b)+1)
			}
			checkAgainstOracle(t, x, o, probes)
			v := x.Snapshot()
			got := make([]int32, len(probes))
			v.SearchBatch(probes, got)
			for i, p := range probes {
				if int(got[i]) != o.search(p) {
					t.Fatalf("SearchBatch(%d)=%d want %d", p, got[i], o.search(p))
				}
			}
			for pos, want := range o.keys {
				if got := v.Key(pos); got != want {
					t.Fatalf("Key(%d)=%d want %d", pos, got, want)
				}
			}
		}
		for i := 1; i+1 < len(data); i += 2 {
			// arg names a key: a multiple of 3 is resident at the start,
			// anything else is not.
			op, arg := data[i]%6, uint32(data[i+1])
			k := arg + arg/2
			batch := []uint32{k, k + 3, k}
			switch op {
			case 0:
				x.Insert(batch...)
				o.insert(batch...)
			case 1:
				x.Delete(batch...)
				x.Sync()
				o.delete(batch...)
			case 2:
				enqueueTogether(x, slices.Clone(batch), []uint32{k, k, k + 1})
				o.insert(batch...)
				o.delete(k, k, k+1)
			case 3:
				x.Sync()
			case 4:
				x.Compact()
			case 5:
				check()
			}
		}
		check()
	})
}
