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

// TestRouteMatchesSearch holds the branch-free route to sort.Search over 0
// to 64 bounds, distinct and repeated, with keys at 0, at MaxUint32, at
// every bound and one either side of it.
func TestRouteMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for nb := 0; nb <= 64; nb++ {
		for _, span := range []uint32{math.MaxUint32, uint32(nb) / 2} { // the whole key space; a few repeated values
			bounds := make([]uint32, nb)
			for i := range bounds {
				bounds[i] = rng.Uint32()
				if span < math.MaxUint32 {
					bounds[i] = uint32(rng.Intn(int(span)+1)) * 1000
				}
			}
			slices.Sort(bounds)
			keys := []uint32{0, math.MaxUint32}
			for _, b := range bounds {
				keys = append(keys, b-1, b, b+1) // wraps at the edges: still keys to route
			}
			for _, k := range keys {
				want := sort.Search(nb, func(i int) bool { return k < bounds[i] })
				if got := route(bounds, k); got != want {
					t.Fatalf("%d bounds %v: route(%d) = %d, sort.Search says %d", nb, bounds, k, got, want)
				}
			}
		}
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
