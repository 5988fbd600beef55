package mmdb

// A column stores its values once: an index is built over the values
// themselves, and only a group-by builds a domain and per-row IDs, on the
// column's first GroupAggregate, inside that query's governance.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"cssidx"
	"cssidx/internal/governor"
	"cssidx/internal/workload"
)

// freshIDs returns the IDs a domain built from scratch gives the column's
// base rows [0, base): each value's rank among the distinct values, found by
// binary search.
func freshIDs(c *Column, base int) []uint32 {
	dom := slices.Compact(slices.Sorted(slices.Values(c.raw[:base])))
	ids := make([]uint32, base)
	for i, v := range c.raw[:base] {
		id, _ := slices.BinarySearch(dom, v)
		ids[i] = uint32(id)
	}
	return ids
}

// TestColumnStoresNoIDs: AddColumn grows the live heap by the column's
// values and nothing per row beyond them — no domain, no ID array — and no
// build, read, join or fold gives a column a domain or IDs: only a group-by
// does, and then exactly the encoding of its base rows.  A column that also
// kept a domain or a per-row ID copy grows the heap by up to 4 bytes a row
// more and fails the pin.
func TestColumnStoresNoIDs(t *testing.T) {
	const n, slack = 200_000, 64 << 10
	g := workload.New(51)
	// 65,536 distinct values: a domain of them (256 KiB of values alone)
	// would not fit in the slack.
	vals := g.Lookups(g.SortedUniform(1<<16), n)
	tab := NewTable("t")
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	if err := tab.AddColumn("k", vals); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	c := tab.cols["k"]
	want := int64(4 * n)
	grew := int64(ms.HeapAlloc) - int64(before) // signed: garbage freed by the second GC can shrink it
	t.Logf("AddColumn of %d rows grew the heap by %d B; values = %d B", n, grew, want)
	if grew > want+slack {
		t.Errorf("AddColumn grew the heap by %d B, over values + %d = %d", grew, slack, want+slack)
	}

	noIDs := func(when string) {
		t.Helper()
		if c.grp.Load() != nil {
			t.Fatalf("%s: the column holds a domain and IDs", when)
		}
	}
	noIDs("after AddColumn")
	if err := tab.AddColumn("m", g.Lookups(g.SortedUniform(64), n)); err != nil {
		t.Fatal(err)
	}
	ix, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	noIDs("after BuildIndex")
	dom := distinctValues(c)
	if _, _, err := tab.SelectRange("k", dom[10], dom[200]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.SelectWhere([]RangePred{{Col: "k", Lo: dom[10], Hi: dom[900]}, {Col: "m", Lo: 0, Hi: 1 << 31}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.SelectIn("k", dom[:40]); err != nil {
		t.Fatal(err)
	}
	if _, err := JoinWith(tab, "m", ix, JoinOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := GroupAggregate(tab, "m", "k", nil); err != nil {
		t.Fatal(err)
	}
	noIDs("after selections, a join and a group-by on another column")
	if err := tab.AppendRows(map[string][]uint32{"k": vals[:n/4], "m": vals[:n/4]}); err != nil {
		t.Fatal(err)
	}
	tab.Compact()
	noIDs("after a fold")

	if _, err := GroupAggregate(tab, "k", "m", nil); err != nil {
		t.Fatal(err)
	}
	memo := c.grp.Load()
	if memo == nil {
		t.Fatal("GroupAggregate left the group column without a domain and IDs")
	}
	if !slices.Equal(memo.ids, freshIDs(c, tab.BaseRows())) {
		t.Fatal("memoized IDs differ from an encoding of the base rows")
	}
	runtime.KeepAlive(tab)
}

// TestFirstGroupByIsBudgeted: a column's first GroupAggregate builds its
// domain and IDs inside the query, charged to the query's byte budget.  On a
// fresh 2M-row column, under a budget smaller than the ID array, it returns
// the budget error, publishes no domain and admits nothing to the cache;
// retried without the budget it succeeds, with the scan's answer.
func TestFirstGroupByIsBudgeted(t *testing.T) {
	const n = 2_000_000
	g := workload.New(55)
	tab := NewTable("t")
	gVals, mVals := g.Lookups(g.SortedUniform(64), n), g.Lookups(g.SortedUniform(1<<16), n)
	if err := tab.AddColumn("g", gVals); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("m", mVals); err != nil {
		t.Fatal(err)
	}
	qc := tab.EnableCache(CacheOptions{MinCostNs: -1}) // admit at first sight
	for ask := range 2 {
		ctx := governor.WithBudget(context.Background(), 4*n-1)
		if _, err := GroupAggregateCtx(ctx, tab, "g", "m", nil, nil); !errors.Is(err, governor.ErrBudgetExceeded) {
			t.Fatalf("ask %d under a %d B budget: err = %v, want the budget error", ask, 4*n-1, err)
		}
		if tab.cols["g"].grp.Load() != nil {
			t.Fatalf("ask %d: an over-budget group-by published a domain", ask)
		}
		if s := qc.Stats(); s.Inserts != 0 || s.Entries != 0 {
			t.Fatalf("ask %d: an over-budget group-by reached the cache: %+v", ask, s)
		}
	}
	got, err := GroupAggregateCtx(context.Background(), tab, "g", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[uint32]uint64{}
	for i, v := range gVals {
		sums[v] += uint64(mVals[i])
	}
	if len(got) != len(sums) {
		t.Fatalf("%d groups, the scan has %d", len(got), len(sums))
	}
	for _, r := range got {
		if r.Sum != sums[r.Value] {
			t.Fatalf("group %d: sum %d, the scan's %d", r.Value, r.Sum, sums[r.Value])
		}
	}
	if tab.cols["g"].grp.Load() == nil || qc.Stats().Inserts != 1 {
		t.Fatalf("the unbudgeted retry left no domain or no entry: %+v", qc.Stats())
	}
}

// TestGroupIDsFirstCallsRace races the first group-bys of fresh columns —
// over all rows, over a RID list, with appended rows outstanding — from
// several goroutines (run under -race): every call must return the answer a
// sequential call does, and the column must end up with one memo, the
// encoding of its base rows.
func TestGroupIDsFirstCallsRace(t *testing.T) {
	const n, callers = 20_000, 6
	g := workload.New(52)
	gDict, mDict := g.SortedUniform(300), g.SortedUniform(5000)
	gVals, mVals := g.Lookups(gDict, n), g.Lookups(mDict, n)
	build := func() *Table {
		tab := NewTable("t")
		tab.fold = neverFold
		if err := tab.AddColumn("g", gVals); err != nil {
			t.Fatal(err)
		}
		if err := tab.AddColumn("m", mVals); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	// The delta brings group values the frozen domain lacks as well.
	batch := map[string][]uint32{"g": g.Lookups(g.SortedUniform(600), 500), "m": g.Lookups(mDict, 500)}
	rids := make([]uint32, 0, n/7)
	for r := 0; r < n; r += 7 {
		rids = append(rids, uint32(r))
	}
	for _, leg := range []struct {
		name   string
		rids   []uint32
		absorb bool
	}{{"all rows", nil, false}, {"rid list", rids, false}, {"all rows with a delta", nil, true}} {
		t.Run(leg.name, func(t *testing.T) {
			tab, oracle := build(), build()
			if leg.absorb {
				for _, x := range []*Table{tab, oracle} {
					if err := x.AppendRows(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			want, err := GroupAggregate(oracle, "g", "m", leg.rids)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]GroupRow, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i], errs[i] = GroupAggregate(tab, "g", "m", leg.rids)
				}()
			}
			close(start)
			wg.Wait()
			for i := range callers {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !slices.Equal(got[i], want) {
					t.Fatalf("caller %d: %d groups, want %d, or a group differs", i, len(got[i]), len(want))
				}
			}
			c := tab.cols["g"]
			if memo := c.grp.Load(); memo == nil || !slices.Equal(memo.ids, freshIDs(c, tab.BaseRows())) {
				t.Fatal("the memoized IDs are missing or differ from an encoding of the base rows")
			}
		})
	}
}

// BenchmarkGroupAggregate prices an uncached group-by at the end-to-end
// benchmark's fact-table size (2M rows) with 64 and 4,096 groups, over a
// selection's 1,270 RIDs and over all rows.  The first call on each group
// column — which builds the column's domain and IDs — runs outside the
// timer and is reported as first-call-ms.
func BenchmarkGroupAggregate(b *testing.B) {
	const n, selected = 2_000_000, 1_270
	g := workload.New(53)
	tab := NewTable("fact")
	for _, c := range []struct {
		name     string
		distinct int
	}{{"g64", 64}, {"g4096", 4096}, {"m", 1 << 16}} {
		if err := tab.AddColumn(c.name, g.Lookups(g.SortedUniform(c.distinct), n)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(53))
	rids := make([]uint32, selected)
	for i := range rids {
		rids[i] = uint32(rng.Intn(n))
	}
	first := map[string]time.Duration{}
	for _, col := range []string{"g64", "g4096"} {
		start := time.Now()
		if _, err := GroupAggregate(tab, col, "m", rids); err != nil {
			b.Fatal(err)
		}
		first[col] = time.Since(start)
	}
	for _, col := range []string{"g64", "g4096"} {
		for _, leg := range []struct {
			name string
			rids []uint32
		}{{"rids=1270", rids}, {"all-rows", nil}} {
			b.Run(col[1:]+"-groups/"+leg.name, func(b *testing.B) {
				b.ReportMetric(float64(first[col].Microseconds())/1e3, "first-call-ms")
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows, err := GroupAggregate(tab, col, "m", leg.rids)
					if err != nil {
						b.Fatal(err)
					}
					sinkInt += len(rows)
				}
			})
		}
	}
}
