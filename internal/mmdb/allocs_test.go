//go:build !race

package mmdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/governor"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// TestWarmHitAllocs pins the allocation count of the exact-hit path of every
// cached surface: the plain call routes through the one entry with a
// background context, and nothing on that route — the env value, the entry
// bracket, the cached-path helpers, the lookup's answer, the replayed plan,
// whose Why string is the entry's — may cost an allocation of its own.  What
// does allocate on a hit is the result copy, SelectIn's distinct list and
// SelectWhere's plan slice — on a sharded column as on any other: no range
// plans before its lookup, so none pays for a Plan.Why string.  SelectIn's seen-set
// lives on the stack up to 64 values, so a 64-value list costs what a
// 6-value one does.  An emitting join's hit emits from the cached pairs
// themselves and allocates nothing, like the count-only one.  The race
// detector's instrumentation moves a count, hence the build tag.
func TestWarmHitAllocs(t *testing.T) {
	cached, _ := pairTables(t, 3000, 91)
	g := workload.New(91)
	outer := NewTable("o")
	aVals, _ := cached.Column("a")
	if err := outer.AddColumn("fk", g.Lookups(distinctValues(aVals), 500)); err != nil {
		t.Fatal(err)
	}
	outer.EnableCache(CacheOptions{MinCostNs: -1})
	aIx, _ := cached.Index("a")
	cVals, _ := cached.Column("c")
	list := g.Lookups(distinctValues(cVals), 6)
	list64 := g.Lookups(distinctValues(aVals), 64)
	preds := []RangePred{{Col: "a", Lo: 0, Hi: 1 << 30}, {Col: "b", Lo: 1 << 27, Hi: 1 << 31}}
	// An emitting join fills the pair cache both join rows read.
	if n, err := JoinWith(outer, "fk", aIx, JoinOptions{}, func(o, i uint32) {}); err != nil || n < 500 {
		t.Fatalf("join: %d pairs, %v; every outer row must find its value", n, err)
	}
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"SelectRange", 1, func() { cached.SelectRange("a", 1<<28, 1<<28+1<<26) }},
		{"SelectRange sharded-only", 1, func() { cached.SelectRange("b", 1<<28, 1<<28+1<<24) }},
		{"SelectIn", 2, func() { cached.SelectIn("c", list) }},
		{"SelectIn 64 values", 2, func() { cached.SelectIn("a", list64) }},
		{"SelectWhere", 2, func() { cached.SelectWhere(preds) }},
		{"GroupAggregate", 1, func() { GroupAggregate(cached, "c", "a", nil) }},
		{"JoinWith count-only", 0, func() { JoinWith(outer, "fk", aIx, JoinOptions{}, nil) }},
		{"JoinWith emitting", 0, func() { JoinWith(outer, "fk", aIx, JoinOptions{}, func(o, i uint32) {}) }},
	} {
		c.run() // warm: the measured calls are all exact hits
		if got := testing.AllocsPerRun(200, c.run); got != c.want {
			t.Errorf("%s warm hit: %v allocs/op, pinned at %v", c.name, got, c.want)
		}
	}
}

// TestFirstSightStagesNothing: a question asked for the first time runs as it
// would with caching off — no key run, no group offsets, no sorted conjunct
// keys, no staged join pairs, no insert.  Every measured call asks a question
// never asked before, on a default-admission table and on a cache-off twin in
// step, and the cached side may allocate at most a constant more (nothing,
// today).  The emitting join's first sight streams: a staged one would pay a
// growing pair buffer per worker on top.
func TestFirstSightStagesNothing(t *testing.T) {
	cached, plain := pairTables(t, 20000, 93)
	g := workload.New(93)
	cached.EnableCache(CacheOptions{}) // pairTables admits at first sight
	aVals, _ := plain.Column("a")
	dom := distinctValues(aVals)
	// Each surface draws its i-th question from the column's domain, so the
	// cached and the cache-off call of one step do identical index work.
	const runs = 20
	outers := func(tab *Table) []*Table {
		out := make([]*Table, runs+1) // AllocsPerRun makes one warm-up call
		for i := range out {
			out[i] = NewTable(fmt.Sprintf("o%d", i)) // the outer table names the join's question
			if err := out[i].AddColumn("fk", g.Lookups(dom, 600)); err != nil {
				t.Fatal(err)
			}
			out[i].cache.Store(tab.Cache())
		}
		return out
	}
	for _, c := range []struct {
		name string
		run  func(tab *Table, outer []*Table, i int)
	}{
		{"SelectRange", func(tab *Table, _ []*Table, i int) { tab.SelectRange("a", dom[40*i], dom[40*i+30]) }},
		{"SelectRange sharded-only", func(tab *Table, _ []*Table, i int) {
			tab.SelectRange("b", dom[40*i]>>1, dom[40*i]>>1+1<<22)
		}},
		{"SelectIn", func(tab *Table, _ []*Table, i int) { tab.SelectIn("a", dom[30*i:30*i+12]) }},
		{"SelectWhere", func(tab *Table, _ []*Table, i int) {
			tab.SelectWhere([]RangePred{{Col: "a", Lo: dom[50*i], Hi: dom[50*i+45]}, {Col: "b", Lo: uint32(i) << 20, Hi: 1 << 31}})
		}},
		{"JoinWith emitting", func(tab *Table, outer []*Table, i int) {
			ix, _ := tab.Index("a")
			JoinWith(outer[i], "fk", ix, JoinOptions{}, func(o, i uint32) {})
		}},
	} {
		measure := func(tab *Table) float64 {
			outer, i := outers(tab), 0
			return testing.AllocsPerRun(runs, func() { c.run(tab, outer, i); i++ })
		}
		before := cached.Cache().Stats()
		on, off := measure(cached), measure(plain)
		if s := cached.Cache().Stats(); s.Deferred == before.Deferred || s.Inserts != before.Inserts {
			t.Errorf("%s: the measured calls were not first sights: %+v", c.name, s)
		}
		if on > off {
			t.Errorf("%s at first sight: %v allocs/op, %v with caching off", c.name, on, off)
		}
	}
}

// TestWhereAllocatesOnlyResult: an uncached conjunction of two index
// conjuncts reads both RID spans where the index published them and
// allocates only its result, plus a constant for the plans, the bound
// resolution and the bookkeeping — however large the spans are.  Bytes, not
// allocation counts: a copied span is one allocation, but thousands of
// RIDs.  The smallest of a few calls is taken, since a collection between
// two can empty the row-map pool.
func TestWhereAllocatesOnlyResult(t *testing.T) {
	_, plain := pairTables(t, 40000, 95)
	aVals, _ := plain.Column("a")
	bVals, _ := plain.Column("b")
	ad, bd := distinctValues(aVals), distinctValues(bVals)
	// Each conjunct spans a tenth of its domain, about 4,000 rows: indexed,
	// and an intersection of about 400.
	preds := []RangePred{{Col: "a", Lo: ad[len(ad)/4], Hi: ad[len(ad)/4+len(ad)/10]},
		{Col: "b", Lo: bd[len(bd)/2], Hi: bd[len(bd)/2+len(bd)/10]}}
	const slack = 1024
	var ms runtime.MemStats
	best := ^uint64(0)
	var got []uint32
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rids, plans, err := plain.SelectWhere(preds)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if !plans[0].UseIndex || !plans[1].UseIndex {
			t.Fatalf("plans %+v: both conjuncts must take their index", plans)
		}
		best, got = min(best, ms.TotalAlloc-before), rids
	}
	if len(got) == 0 {
		t.Fatal("empty intersection: the pin would measure nothing")
	}
	t.Logf("%d result RIDs, %d bytes allocated", len(got), best)
	if limit := 4*uint64(len(got)) + slack; best > limit {
		t.Errorf("SelectWhere allocated %d bytes for a %d-RID result, over 4·len(result)+%d = %d",
			best, len(got), slack, limit)
	}
}

// TestJoinAdmitCopiesPairsOnce: an emitting join that fills the pair cache
// stages its pairs in the pooled per-worker buffers, then copies them once,
// into the two columns the cache entry keeps — 8 bytes per admitted pair —
// plus a constant for the entry and the join's bookkeeping.  A cache that
// copied the columns again on insert would allocate 16.  Each measured join
// is a fresh question (its own outer table on the shared cache), and the
// smallest of a few is taken, since a collection can empty the pool.
func TestJoinAdmitCopiesPairsOnce(t *testing.T) {
	cached, _ := pairTables(t, 3000, 97)
	g := workload.New(97)
	aIx, _ := cached.Index("a")
	aVals, _ := cached.Column("a")
	const runs, slack = 6, 4096
	outers := make([]*Table, runs)
	for i := range outers {
		outers[i] = NewTable(fmt.Sprintf("o%d", i))
		if err := outers[i].AddColumn("fk", g.Lookups(distinctValues(aVals), 3000)); err != nil {
			t.Fatal(err)
		}
		outers[i].cache.Store(cached.Cache())
	}
	var ms runtime.MemStats
	best, pairs := int64(math.MaxInt64), 0 // best: the fewest bytes past 8 per pair
	for i, outer := range outers {
		inserts := cached.Cache().Stats().Inserts
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		n, err := JoinWith(outer, "fk", aIx, JoinOptions{}, func(o, i uint32) {})
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Cache().Stats().Inserts != inserts+1 {
			t.Fatalf("join %d was not admitted", i)
		}
		if over := int64(ms.TotalAlloc-before) - 8*int64(n); i > 0 && over < best { // the first warms the staging pool
			best, pairs = over, n
		}
	}
	t.Logf("%d admitted pairs, 8·pairs + %d bytes allocated", pairs, best)
	if best > slack {
		t.Errorf("an admitting join allocated 8·pairs + %d bytes for %d pairs, over 8·pairs + %d", best, pairs, slack)
	}
}

// TestColdJoinStagesOnce: an admitting join whose pair set is too large for
// the staging pool to keep runs cold every time (two workers here, 30 chunks
// a span).  Its staging is sized from each chunk's base pairs before the chunk
// emits — the span's pairs projected from its rate so far — so it is
// allocated about once: the join stays under 12 bytes a pair past the 8 the
// cache's two columns take, plus a constant.  Staging grown by append, which
// copies the buffer at every 1.25× step, costs 37 bytes a pair here.
func TestColdJoinStagesOnce(t *testing.T) {
	cached, _ := pairTables(t, 3000, 98)
	g := workload.New(98)
	aIx, _ := cached.Index("a")
	aVals, _ := cached.Column("a")
	const runs, slack, perPair = 4, 8192, 12
	var ms runtime.MemStats
	best, pairs := int64(math.MaxInt64), 0 // best: the fewest bytes past 8 per pair
	for i := range runs {
		outer := NewTable(fmt.Sprintf("cold%d", i))
		if err := outer.AddColumn("fk", g.Lookups(distinctValues(aVals), 60_000)); err != nil {
			t.Fatal(err)
		}
		outer.cache.Store(cached.Cache())
		inserts := cached.Cache().Stats().Inserts
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		n, err := JoinWith(outer, "fk", aIx, JoinOptions{par: parallel.Options{Workers: 2}}, func(o, i uint32) {})
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if n <= maxPooledPairs || cached.Cache().Stats().Inserts != inserts+1 {
			t.Fatalf("join %d: %d pairs, admitted %v: the pin needs an admitted join the pool does not keep",
				i, n, cached.Cache().Stats().Inserts == inserts+1)
		}
		if over := int64(ms.TotalAlloc-before) - 8*int64(n); over < best {
			best, pairs = over, n
		}
	}
	t.Logf("%d admitted pairs, 8·pairs + %d bytes allocated (%.1f per pair)", pairs, best, float64(best)/float64(pairs))
	if limit := perPair*int64(pairs) + slack; best > limit {
		t.Errorf("a cold admitting join allocated 8·pairs + %d bytes for %d pairs, over 8·pairs + %d·pairs + %d",
			best, pairs, perPair, slack)
	}
}

// TestSkewedJoinChargesItsStaging: a span whose first chunk is dense and the
// rest empty projects far more pairs than it finds, so its staging holds
// room no pair fills — up to eight times the pairs.  The budget is charged
// for that room too: a governed join allocates no more than it charges, plus
// a constant.  Charged 8 bytes a pair only, the join allocates about eight
// times its charge here.
func TestSkewedJoinChargesItsStaging(t *testing.T) {
	const innerVals, dup, spanRows, slack = 100, 50, 20_000, 64 << 10
	inner := NewTable("inner")
	a := make([]uint32, innerVals*dup)
	for i := range a {
		a[i] = uint32(i % innerVals)
	}
	if err := inner.AddColumn("a", a); err != nil {
		t.Fatal(err)
	}
	aIx, err := inner.BuildIndex("a", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fk := make([]uint32, 2*spanRows)
	for i := range fk {
		fk[i] = 1 << 20 // in no inner row
		if i%spanRows < cssidx.DefaultBatchSize {
			fk[i] = uint32(i % innerVals)
		}
	}
	outer := NewTable("outer")
	if err := outer.AddColumn("fk", fk); err != nil {
		t.Fatal(err)
	}
	ctx := governor.WithBudget(context.Background(), 1<<40)
	runtime.GC()
	runtime.GC() // an empty staging pool: every span grows its buffer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	n, err := JoinWithCtx(ctx, outer, "fk", aIx, JoinOptions{par: parallel.Options{Workers: 2}}, func(o, i uint32) {}, nil)
	runtime.ReadMemStats(&ms)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * cssidx.DefaultBatchSize * dup; n != want {
		t.Fatalf("%d pairs, want %d", n, want)
	}
	alloc, charged := int64(ms.TotalAlloc-before), governor.ContextBudget(ctx).Used()
	t.Logf("%d pairs: %d bytes allocated, %d charged", n, alloc, charged)
	if alloc > charged+slack {
		t.Errorf("a skewed join allocated %d bytes but charged its budget %d, over %d slack", alloc, charged, slack)
	}
}

// TestAbsorbAllocatesOnlyPublished: an absorb stream allocates the runs its
// epochs publish — each run's pairs and its bloom filter — plus, per absorb,
// a constant for the epoch and its run slice.  A cascade merged pair by pair
// would allocate every intermediate run and its filter too, and a batch
// sorted through a heap scratch its ping-pong buffers: kilobytes a batch.
func TestAbsorbAllocatesOnlyPublished(t *testing.T) {
	const baseRows, batches, batch, slack = 20_000, 300, 256, 1024
	rng := rand.New(rand.NewSource(26))
	tab := NewTable("t")
	vals := make([]uint32, baseRows+batches*batch)
	for i := range vals {
		vals[i] = uint32(rng.Intn(5000))
	}
	if err := tab.AddColumn("k", vals[:baseRows]); err != nil {
		t.Fatal(err)
	}
	ix, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	published := uint64(0)
	for i := range batches {
		prev := ix.cur.Load().runs
		from := baseRows + i*batch
		ix.absorb(vals[from:from+batch], uint32(from))
		for _, r := range ix.cur.Load().runs {
			if !slices.ContainsFunc(prev, func(p idxRun) bool { return &p.vals[0] == &r.vals[0] }) {
				published += uint64(r.spaceBytes())
			}
		}
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	t.Logf("%d absorbs: %d B allocated, %d B of runs and filters published", batches, got, published)
	if limit := published + batches*slack; got > limit {
		t.Errorf("%d absorbs allocated %d B: over the %d B published + %d B a batch", batches, got, published, slack)
	}
}

// TestFoldAllocatesOnlyBase: a fold allocates the base arrays it publishes —
// keys and RIDs, 8 bytes a row per index — and what building each index's
// search structure over them allocates (measured apart, over the published
// keys), plus a constant: every index already holds its tail sorted in its
// runs, so nothing is sorted or merged into a scratch array first.
func TestFoldAllocatesOnlyBase(t *testing.T) {
	const baseRows, tailRows, batch, slack = 100_000, 12_800, 256, 64 << 10
	rng := rand.New(rand.NewSource(27))
	tab := NewTable("t")
	tab.fold = neverFold
	gen := func(n int) map[string][]uint32 {
		cols := map[string][]uint32{}
		for _, c := range []string{"k", "s", "h", "v"} {
			cols[c] = make([]uint32, n)
			for i := range cols[c] {
				cols[c][i] = uint32(rng.Intn(1 << 20))
			}
		}
		return cols
	}
	base := gen(baseRows)
	for _, c := range []string{"k", "s", "h", "v"} {
		if err := tab.AddColumn(c, base[c]); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []struct {
		col  string
		kind cssidx.Kind
	}{{"k", cssidx.KindLevelCSS}, {"h", cssidx.KindHash}} {
		if _, err := tab.BuildIndex(b.col, b.kind, cssidx.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.BuildShardedIndex("s", 4); err != nil {
		t.Fatal(err)
	}
	for done := 0; done < tailRows; done += batch {
		if err := tab.AppendRows(gen(batch)); err != nil {
			t.Fatal(err)
		}
	}
	var ms runtime.MemStats
	allocated := func(f func()) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	got := allocated(tab.Compact)
	if tab.DeltaRows() != 0 {
		t.Fatal("Compact left rows outstanding")
	}
	published := uint64(0)
	for _, ix := range tab.indexes {
		s := ix.cur.Load()
		published += 8*uint64(len(s.keys)) + allocated(func() { ix.structure(&segment{keys: s.keys, rids: s.rids}) })
	}
	t.Logf("fold of %d+%d rows: %d B allocated, %d B for base arrays and structure builds", baseRows, tailRows, got, published)
	if limit := published + slack; got > limit {
		t.Errorf("a fold allocated %d B: over the %d B of base arrays and structure builds + %d", got, published, slack)
	}
}
