package shard

import (
	"math"
	"math/rand"
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
	v := x.View()
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
	v := x.View()
	for i := 0; i < x.ShardCount(); i++ {
		n := v.offs[i+1] - v.offs[i]
		if n < 10000/8-2 || n > 10000/8+2 {
			t.Fatalf("shard %d holds %d keys, want ~%d", i, n, 10000/8)
		}
	}
}

func TestWeightedBoundariesFollowSkew(t *testing.T) {
	g := workload.New(4)
	keys := g.SortedUniform(20000)
	// Zipf sample: most probes hit the low ranks (small key values here,
	// since ZipfLookups ranks by position).
	sample := g.ZipfLookups(keys, 50000, 1.2)
	b := WeightedBoundaries(keys, sample, 8)
	if len(b) == 0 {
		t.Fatal("no weighted boundaries")
	}
	x := New(keys, b, 16)
	defer x.Close()
	v := x.View()
	// The hot (first) shard must be smaller in keys than the cold (last):
	// equal probe mass concentrates cuts where traffic is.
	firstN := v.offs[1] - v.offs[0]
	lastN := v.offs[len(v.snaps)] - v.offs[len(v.snaps)-1]
	if firstN >= lastN {
		t.Fatalf("skew-aware split: hot shard %d keys, cold shard %d keys; want hot < cold", firstN, lastN)
	}
	// And the probe mass per shard should be far more even than the key mass.
	counts := make([]int, x.ShardCount())
	for _, p := range sample {
		counts[x.shardFor(p)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d receives no traffic", i)
		}
	}
}

func TestWeightedBoundariesEmptySampleFallsBack(t *testing.T) {
	g := workload.New(5)
	keys := g.SortedUniform(1000)
	if got, want := WeightedBoundaries(keys, nil, 4), Boundaries(keys, 4); !slices.Equal(got, want) {
		t.Fatalf("empty-sample fallback: got %v want %v", got, want)
	}
}

func TestViewIsFrozen(t *testing.T) {
	g := workload.New(6)
	keys := g.SortedUniform(2000)
	x := NewEqual(keys, 4, 16)
	defer x.Close()
	v := x.View()
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
	v := x.View()
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
