package shard

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"cssidx/internal/workload"
)

// oracle is the reference: a plain sorted slice with the obvious answers.
type oracle struct{ keys []uint32 }

func (o *oracle) lowerBound(k uint32) int {
	return sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= k })
}
func (o *oracle) search(k uint32) int {
	i := o.lowerBound(k)
	if i < len(o.keys) && o.keys[i] == k {
		return i
	}
	return -1
}
func (o *oracle) equalRange(k uint32) (int, int) {
	first := o.lowerBound(k)
	last := first
	for last < len(o.keys) && o.keys[last] == k {
		last++
	}
	return first, last
}
func (o *oracle) insert(ks ...uint32) {
	o.keys = append(o.keys, ks...)
	slices.Sort(o.keys)
}
func (o *oracle) delete(ks ...uint32) {
	for _, k := range ks {
		if i := o.search(k); i >= 0 {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
		}
	}
}

// checkAgainstOracle compares every read method on a set of probes.
func checkAgainstOracle(t *testing.T, x *Index, o *oracle, probes []uint32) {
	t.Helper()
	if got := x.Len(); got != len(o.keys) {
		t.Fatalf("Len=%d want %d", got, len(o.keys))
	}
	for _, p := range probes {
		if got, want := x.LowerBound(p), o.lowerBound(p); got != want {
			t.Fatalf("LowerBound(%d)=%d want %d", p, got, want)
		}
		if got, want := x.Search(p), o.search(p); got != want {
			t.Fatalf("Search(%d)=%d want %d", p, got, want)
		}
		gf, gl := x.EqualRange(p)
		wf, wl := o.equalRange(p)
		if gf != wf || gl != wl {
			t.Fatalf("EqualRange(%d)=[%d,%d) want [%d,%d)", p, gf, gl, wf, wl)
		}
	}
	// Full content via the merging iterator.
	v := x.Snapshot()
	it := v.RangeAll()
	for i, want := range o.keys {
		k, pos, ok := it.Next()
		if !ok || pos != i || k != want {
			t.Fatalf("iterator at %d: got (%d,%d,%v) want (%d,%d,true)", i, k, pos, ok, want, i)
		}
	}
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator yields past the end")
	}
}

func probesFor(keys []uint32, g *workload.Gen) []uint32 {
	probes := []uint32{0, 1, math.MaxUint32, math.MaxUint32 - 1}
	if len(keys) > 0 {
		probes = append(probes, keys[0], keys[len(keys)-1])
		probes = append(probes, g.Lookups(keys, 200)...)
		probes = append(probes, g.Misses(keys, 100)...)
	}
	return probes
}

func TestReadsMatchOracleAcrossShardCounts(t *testing.T) {
	g := workload.New(1)
	keys := g.SortedWithDuplicates(5000, 3)
	probes := probesFor(keys, g)
	for _, ns := range []int{1, 2, 4, 7, 16} {
		x := NewEqual(keys, ns, 16)
		checkAgainstOracle(t, x, &oracle{keys: slices.Clone(keys)}, probes)
		x.Close()
	}
}

func TestEmptyAndTiny(t *testing.T) {
	for _, keys := range [][]uint32{nil, {7}, {7, 7, 7}, {0, math.MaxUint32}} {
		x := NewEqual(keys, 4, 8)
		o := &oracle{keys: slices.Clone(keys)}
		checkAgainstOracle(t, x, o, []uint32{0, 6, 7, 8, math.MaxUint32})
		x.Close()
	}
}

func TestInsertDeleteMatchesOracle(t *testing.T) {
	g := workload.New(2)
	rng := rand.New(rand.NewSource(2))
	keys := g.SortedUniform(3000)
	x := NewEqual(keys, 4, 16)
	defer x.Close()
	o := &oracle{keys: slices.Clone(keys)}
	for round := 0; round < 20; round++ {
		ins := make([]uint32, 50)
		for i := range ins {
			ins[i] = uint32(rng.Int63n(math.MaxUint32))
		}
		// Delete a mix of present keys, just-inserted keys, and absent keys.
		del := append([]uint32{}, ins[:10]...)
		for i := 0; i < 20; i++ {
			del = append(del, o.keys[rng.Intn(len(o.keys))])
		}
		del = append(del, uint32(rng.Int63n(1<<20))) // likely absent
		x.Insert(ins...)
		x.Delete(del...)
		x.Sync()
		o.insert(ins...)
		o.delete(del...)
		checkAgainstOracle(t, x, o, probesFor(o.keys, g))
	}
	// Every shard that absorbed updates must have advanced its epoch.
	total := uint64(0)
	for _, e := range x.Epochs() {
		total += e - 1
	}
	if total == 0 {
		t.Fatal("no epoch-swaps published despite updates")
	}
}

func TestDuplicateBoundaryNeverStraddles(t *testing.T) {
	// A huge run of one value right at an equal-count cut: all duplicates
	// must land in one shard so EqualRange stays contiguous and correct.
	keys := make([]uint32, 0, 1000)
	for i := 0; i < 300; i++ {
		keys = append(keys, uint32(i))
	}
	for i := 0; i < 400; i++ {
		keys = append(keys, 500)
	}
	for i := 0; i < 300; i++ {
		keys = append(keys, uint32(1000+i))
	}
	x := NewEqual(keys, 4, 16)
	defer x.Close()
	first, last := x.EqualRange(500)
	if first != 300 || last != 700 {
		t.Fatalf("EqualRange(500)=[%d,%d) want [300,700)", first, last)
	}
}

func TestBoundariesEqualCount(t *testing.T) {
	g := workload.New(3)
	keys := g.SortedUniform(10000)
	b := Boundaries(keys, 8)
	if len(b) != 7 {
		t.Fatalf("got %d boundaries, want 7", len(b))
	}
	x := New(keys, b, 16)
	defer x.Close()
	v := x.Snapshot()
	for i := 0; i < x.ShardCount(); i++ {
		n := v.offs[i+1] - v.offs[i]
		if n < 10000/8-2 || n > 10000/8+2 {
			t.Fatalf("shard %d holds %d keys, want ~%d", i, n, 10000/8)
		}
	}
}

// TestBoundariesDefaultCount: nshards ≤ 0 is GOMAXPROCS capped at 16, the
// count NewSharded and mmdb's sharded columns build with.
func TestBoundariesDefaultCount(t *testing.T) {
	keys := workload.New(5).SortedUniform(1000)
	want := min(runtime.GOMAXPROCS(0), 16)
	if got := Boundaries(keys, 0); !slices.Equal(got, Boundaries(keys, want)) {
		t.Fatalf("Boundaries(keys, 0) = %v, want the %d-shard split", got, want)
	}
	if got := Boundaries(nil, 4); got != nil {
		t.Fatalf("Boundaries(nil, 4) = %v, want none", got)
	}
}

func TestViewIsFrozen(t *testing.T) {
	g := workload.New(6)
	keys := g.SortedUniform(2000)
	x := NewEqual(keys, 4, 16)
	defer x.Close()
	v := x.Snapshot()
	before := v.Len()
	x.Insert(g.Misses(keys, 500)...)
	x.Sync()
	if v.Len() != before {
		t.Fatalf("view length changed after updates: %d -> %d", before, v.Len())
	}
	if x.Len() != before+500 {
		t.Fatalf("index length %d, want %d", x.Len(), before+500)
	}
}

// TestFreezeMatchesSnapshot: Freeze builds exactly the shards New does —
// same partition, epochs and answers, scalar, batched and scanned — with no
// index behind them.
func TestFreezeMatchesSnapshot(t *testing.T) {
	g := workload.New(8)
	keys := g.SortedWithDuplicates(5000, 3)
	b := Boundaries(keys, 4)
	x := New(keys, b, 16)
	defer x.Close()
	v, fz := x.Snapshot(), Freeze(keys, b, 16)
	if !slices.Equal(fz.Bounds(), v.Bounds()) || !slices.Equal(fz.Epochs(), v.Epochs()) || fz.ShardCount() != 4 {
		t.Fatalf("Freeze: bounds %v epochs %v, want %v %v", fz.Bounds(), fz.Epochs(), v.Bounds(), v.Epochs())
	}
	probes := append(g.Lookups(keys, 2000), g.Misses(keys, 500)...)
	got, want := make([]int32, len(probes)), make([]int32, len(probes))
	fz.SearchBatch(probes, got)
	v.SearchBatch(probes, want)
	if !slices.Equal(got, want) {
		t.Fatal("Freeze SearchBatch differs from the Snapshot's")
	}
	for _, p := range probes {
		if fz.LowerBound(p) != v.LowerBound(p) {
			t.Fatalf("LowerBound(%d): Freeze %d, Snapshot %d", p, fz.LowerBound(p), v.LowerBound(p))
		}
	}
	var scanned []uint32
	fz.Ascend(0, math.MaxUint32, func(pos int, key uint32) bool {
		if pos != len(scanned) {
			t.Fatalf("Ascend: position %d at step %d", pos, len(scanned))
		}
		scanned = append(scanned, key)
		return true
	})
	if want := keys[:v.LowerBound(math.MaxUint32)]; !slices.Equal(scanned, want) {
		t.Fatalf("Ascend scanned %d keys, want the %d below MaxUint32 in order", len(scanned), len(want))
	}
}

func TestCloseFlushesPending(t *testing.T) {
	g := workload.New(7)
	keys := g.SortedUniform(1000)
	x := NewEqual(keys, 4, 16)
	extra := g.Misses(keys, 100)
	x.Insert(extra...)
	x.Close()
	if x.Len() != 1100 {
		t.Fatalf("Close did not flush: Len=%d want 1100", x.Len())
	}
	for _, k := range extra {
		if x.Search(k) < 0 {
			t.Fatalf("key %d invisible after Close", k)
		}
	}
	x.Close() // idempotent
	x.Sync()  // no-op after Close, must not hang
}

func TestRangeIterSubrange(t *testing.T) {
	keys := []uint32{10, 20, 20, 30, 40, 50, 60, 70}
	x := NewEqual(keys, 3, 8)
	defer x.Close()
	v := x.Snapshot()
	var got []uint32
	for it := v.Range(20, 60); ; {
		k, pos, ok := it.Next()
		if !ok {
			break
		}
		if v.Key(pos) != k {
			t.Fatalf("pos/key mismatch at %d", pos)
		}
		got = append(got, k)
	}
	want := []uint32{20, 20, 30, 40, 50}
	if !slices.Equal(got, want) {
		t.Fatalf("Range(20,60)=%v want %v", got, want)
	}
	if it := v.Range(25, 25); it.Remaining() != 0 {
		t.Fatal("empty value range must yield nothing")
	}
}
