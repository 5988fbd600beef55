package mmdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
	"cssidx/internal/workload"
)

func TestCacheContainmentAcrossQueries(t *testing.T) {
	cached, plain := pairTables(t, 4000, 17)
	aCol, _ := plain.Column("a")
	vals := distinctValues(aCol)
	wideLo, wideHi := vals[0], vals[len(vals)/6] // selective: index path
	subLo, subHi := vals[2], vals[len(vals)/8]

	if _, _, err := cached.SelectRange("a", wideLo, wideHi); err != nil {
		t.Fatal(err)
	}
	before := cached.Cache().Stats()
	got, _, err := cached.SelectRange("a", subLo, subHi)
	if err != nil {
		t.Fatal(err)
	}
	after := cached.Cache().Stats()
	if after.ContainedHits != before.ContainedHits+1 {
		t.Fatalf("subrange not answered by containment: %+v -> %+v", before, after)
	}
	want, _, err := plain.SelectRange("a", subLo, subHi)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualU32(t, "contained subrange", got, want)
}

func TestJoinCacheReplay(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		g := workload.New(23)
		innerKeys := g.SortedUniform(2000)
		outerVals := g.Lookups(innerKeys, 3000)
		inner := NewTable("inner")
		if err := inner.AddColumn("k", innerKeys); err != nil {
			t.Fatal(err)
		}
		outer := NewTable("outer")
		if err := outer.AddColumn("k", outerVals); err != nil {
			t.Fatal(err)
		}
		outer.EnableCache(CacheOptions{MinCostNs: -1})
		var innerIx *SortedIndex
		if sharded {
			ix, err := inner.BuildShardedIndex("k", 4)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			innerIx = ix
		} else {
			ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
			if err != nil {
				t.Fatal(err)
			}
			innerIx = ix
		}
		collect := func() []uint32 {
			var pairs []uint32
			if _, err := JoinWith(outer, "k", innerIx, JoinOptions{}, func(o, i uint32) { pairs = append(pairs, o, i) }); err != nil {
				t.Fatal(err)
			}
			return pairs
		}
		first := collect()
		second := collect()
		mustEqualU32(t, fmt.Sprintf("join replay sharded=%v", sharded), second, first)
		if s := outer.Cache().Stats(); s.Hits == 0 {
			t.Fatalf("sharded=%v: second join missed the cache: %+v", sharded, s)
		}
		// Moving the inner state must move the token and force recompute.
		if err := inner.AppendRows(map[string][]uint32{"k": g.Lookups(innerKeys, 100)}); err != nil {
			t.Fatal(err)
		}
		third := collect()
		if len(third) < len(first) {
			t.Fatalf("sharded=%v: pairs shrank after append: %d -> %d", sharded, len(first), len(third))
		}
	}
}

func TestDBSharedCache(t *testing.T) {
	db := NewDB(CacheOptions{MinCostNs: -1})
	t1, err := db.CreateTable("t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t1"); err == nil {
		t.Fatal("duplicate table name accepted")
	}
	t2, err := db.CreateTable("t2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{t1, t2} {
		if err := tab.AddColumn("x", []uint32{5, 1, 9, 1, 7}); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.BuildIndex("x", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.SelectRange("x", 1, 7); err != nil { // fill
			t.Fatal(err)
		}
	}
	if s := db.Cache().Stats(); s.Inserts < 2 {
		t.Fatalf("shared cache not filled: %+v", s)
	}
	// Appending to t1 must not invalidate t2's entries.
	if err := t1.AppendRows(map[string][]uint32{"x": {3}}); err != nil {
		t.Fatal(err)
	}
	before := db.Cache().Stats()
	if _, _, err := t2.SelectRange("x", 1, 7); err != nil {
		t.Fatal(err)
	}
	after := db.Cache().Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("t2 entry lost to t1's append: %+v -> %+v", before, after)
	}
}

// TestRebuiltShardedIndexDoesNotReuseTokens locks in the epoch-uid fix: a
// replacement BuildShardedIndex restarts Epoch() at 1, so its cache tokens
// must nevertheless be disjoint from the replaced instance's — otherwise a
// straggler's late insert stamped with the old instance's epoch could be
// served as fresh by the new one.
func TestRebuiltShardedIndexDoesNotReuseTokens(t *testing.T) {
	tab := NewTable("t")
	if err := tab.AddColumn("x", []uint32{5, 1, 9, 1, 7, 3, 9, 2}); err != nil {
		t.Fatal(err)
	}
	tab.EnableCache(CacheOptions{MinCostNs: -1})
	sh1, err := tab.BuildShardedIndex("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh1.SelectRange(1, 9); err != nil { // fill under instance 1
		t.Fatal(err)
	}
	sh2, err := tab.BuildShardedIndex("x", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if sh1.Epoch() != sh2.Epoch() {
		t.Fatalf("precondition lost: instance epochs diverge (%d vs %d), token reuse untestable", sh1.Epoch(), sh2.Epoch())
	}
	before := tab.Cache().Stats()
	got, err := sh2.SelectRange(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	after := tab.Cache().Stats()
	if after.Hits != before.Hits {
		t.Fatalf("new index instance hit the old instance's entry: %+v -> %+v", before, after)
	}
	want := []uint32{1, 3, 7, 5, 0, 4, 2, 6} // value order: 1,1,2,3,5,7,9,9
	mustEqualU32(t, "rebuilt sharded range", got, want)
}

// TestCacheRaceAppendRows is the -race gate for cache hits and
// invalidations racing epoch swaps: readers hammer the epoch-cached
// sharded SelectRange while a writer pushes AppendRows batches through, then
// the final state is checked bit-identical against an uncached replica.
func TestCacheRaceAppendRows(t *testing.T) {
	g := workload.New(31)
	base := g.Lookups(g.SortedUniform(2000), 4000)
	build := func() *Table {
		tab := NewTable("t")
		if err := tab.AddColumn("x", base); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.BuildShardedIndex("x", 4); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	cached := build()
	cached.EnableCache(CacheOptions{MinCostNs: -1})
	plain := build()
	shC, _ := cached.ShardedIndex("x")
	defer shC.Close()
	shP, _ := plain.ShardedIndex("x")
	defer shP.Close()

	const appends = 30
	batches := make([]map[string][]uint32, appends)
	for i := range batches {
		batches[i] = map[string][]uint32{"x": g.Lookups(base, 50)}
	}
	maxRows := uint32(len(base) + appends*50) // rows only ever grow
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lg := workload.New(int64(100 + r))
			for i := 0; !stop.Load(); i++ {
				lo := lg.Lookups(base, 1)[0]
				hi := lo + 1<<28
				rids, err := shC.SelectRange(lo, hi)
				if err != nil {
					panic(err)
				}
				for _, rid := range rids {
					if rid >= maxRows {
						panic(fmt.Sprintf("rid %d out of range %d", rid, maxRows))
					}
				}
			}
		}(r)
	}
	for i := 0; i < appends; i++ {
		if err := cached.AppendRows(batches[i]); err != nil {
			t.Fatal(err)
		}
		// Seed an entry between batches so after every absorb a hit has an
		// entry to bring current and every fold something to drop,
		// independent of how far the racing readers got.
		if _, err := shC.SelectRange(1<<28, 1<<31); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	for i := 0; i < appends; i++ {
		if err := plain.AppendRows(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesced: cached results (fill + hit passes) must equal the uncached
	// replica's exactly.
	for pass := 0; pass < 2; pass++ {
		got, err := shC.SelectRange(1<<28, 1<<31)
		if err != nil {
			t.Fatal(err)
		}
		want, err := shP.SelectRange(1<<28, 1<<31)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualU32(t, fmt.Sprintf("post-race SelectRange pass %d", pass), got, want)
		list := g.Lookups(base, 16)
		gotIn, _, err := cached.SelectIn("x", list)
		if err != nil {
			t.Fatal(err)
		}
		wantIn, _, err := plain.SelectIn("x", list)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualU32(t, fmt.Sprintf("post-race SelectIn pass %d", pass), gotIn, wantIn)
	}
	if s := cached.Cache().Stats(); s.Hits == 0 || s.Invalidations == 0 || s.Patches == 0 {
		t.Fatalf("race exercised nothing: %+v", s)
	}
}
