package mmdb

// Tests of the intermediate-reuse (recycler) paths under concurrency and
// EXPLAIN: containment, IN-list subset replay and aggregate hits racing
// sharded epoch swaps, and the hit-kind counters agreeing with what every
// cache stage printed.  Their answers against a scan of the rows, across
// every index kind, absorbs and folds, are FuzzTableOps' (ops_test.go).

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
	"cssidx/internal/telemetry"
	"cssidx/internal/workload"
)

// reuseCols are the columns the reuse tests ask over: a under a level
// CSS-tree, b sharded, v a measure, each drawing from 2,000 values (grid).
var reuseCols = []opsCol{{"a", int(cssidx.KindLevelCSS), 2000}, {"b", ixSharded, 2000}, {"v", ixNone, 2000}}

// reuseTable builds reuseCols over 4,000 rows drawn from seed, folds off so
// appends absorb, with a cache admitting at first sight.
func reuseTable(t *testing.T, seed int64) *Table {
	t.Helper()
	tab := newOpsTable(t, NewTable("t"), reuseCols, 4000, spread(rand.New(rand.NewSource(seed)))).tab
	tab.fold = neverFold
	tab.EnableCache(CacheOptions{MinCostNs: -1})
	return tab
}

// TestRecycleRaceSharded is the -race gate for the reuse paths against
// epoch swaps: readers stream overlapping sharded ranges (containment and
// refresh targets) while a writer absorbs batches; the quiesced state —
// ranges, IN-lists and IN subsets — must match an uncached replica bit for
// bit.
func TestRecycleRaceSharded(t *testing.T) {
	g := workload.New(59)
	base := g.SortedUniform(2000)
	cols := func(n int) map[string][]uint32 {
		return map[string][]uint32{"x": g.Lookups(base, n)}
	}
	build := func(init map[string][]uint32) *Table {
		tab := NewTable("t")
		tab.fold = neverFold
		if err := tab.AddColumn("x", init["x"]); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.BuildShardedIndex("x", 4); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	init := cols(4000)
	cached := build(init)
	cached.EnableCache(CacheOptions{MinCostNs: -1})
	plain := build(init)
	shC, _ := cached.ShardedIndex("x")
	defer shC.Close()
	shP, _ := plain.ShardedIndex("x")
	defer shP.Close()

	pool := g.Lookups(base, 16)
	const appends = 25
	batches := make([]map[string][]uint32, appends)
	for i := range batches {
		batches[i] = cols(40)
	}
	maxRows := uint32(4000 + appends*40)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Overlapping windows: lo walks, width fixed — each lands on
				// whatever epoch is current and finds its neighbours' runs.
				j := i % (len(base) - 200)
				rids, err := shC.SelectRange(base[j], base[j+150])
				if err != nil {
					panic(err)
				}
				for _, rid := range rids {
					if rid >= maxRows {
						panic(fmt.Sprintf("rid %d out of range %d", rid, maxRows))
					}
				}
			}
		}()
	}
	for i := 0; i < appends; i++ {
		if err := cached.AppendRows(batches[i]); err != nil {
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
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < 3; j++ {
			lo, hi := base[j*100], base[j*100+150]
			got, err := shC.SelectRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			want, err := shP.SelectRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualU32(t, fmt.Sprintf("post-race range %d pass %d", j, pass), got, want)
		}
		for _, list := range [][]uint32{pool, pool[2:9]} {
			got, _, err := cached.SelectIn("x", list)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := plain.SelectIn("x", list)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualU32(t, fmt.Sprintf("post-race in %d pass %d", len(list), pass), got, want)
		}
	}
	if s := cached.Cache().Stats(); s.Hits == 0 || s.StitchedHits != 0 || s.SupersetHits != 0 {
		t.Fatalf("race exercised nothing, or a retired counter moved: %+v", s)
	}
}

// TestHitKindsSumToHits runs a mixed range / IN / WHERE / aggregate stream
// with absorbed appends under EXPLAIN and tallies the outcome every cache
// stage printed.  The counters must agree with the tally kind by kind — a hit
// is exact, contained, a subset replay or an aggregate, and nothing else: the
// four retired counters stay zero — and a concurrent Stats snapshot must never
// see half a settlement: lookups settled (Hits + Misses) and exact hits (Hits
// less the three reuse kinds) only grow.
func TestHitKindsSumToHits(t *testing.T) {
	cached, g, base := reuseTable(t, 61), workload.New(61), grid(2000)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var settled, exact int64
		for !stop.Load() {
			s := cached.Cache().Stats()
			e := s.Hits - s.ContainedHits - s.SubsetHits - s.AggregateHits
			if s.Hits+s.Misses < settled || e < exact {
				t.Errorf("torn snapshot: settled %d -> %d, exact %d -> %d: %+v", settled, s.Hits+s.Misses, exact, e, s)
				return
			}
			settled, exact = s.Hits+s.Misses, e
		}
	}()

	var exact, contained, subset, agg int64
	tally := func(tr *telemetry.Trace, err error, isAgg bool) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := tr.String()
		hits := int64(strings.Count(out, "outcome=hit") + strings.Count(out, "path=cache-hit"))
		if isAgg {
			agg += hits
		} else {
			exact += hits
		}
		contained += int64(strings.Count(out, "outcome=contained") + strings.Count(out, "path=cache-contained"))
		subset += int64(strings.Count(out, "outcome=subset-replay"))
		for _, gone := range []string{"stitched", "superset-fill", "gap_probes", "missing_probes"} {
			if strings.Contains(out, gone) {
				t.Fatalf("EXPLAIN printed a retired outcome:\n%s", out)
			}
		}
	}
	ctx := context.Background()
	rng := func(col string, lo, hi uint32) {
		tr := telemetry.NewTrace("SelectRange")
		_, _, err := cached.SelectRangeCtx(ctx, col, lo, hi, tr)
		tally(tr, err, false)
	}
	in := func(col string, list []uint32) {
		tr := telemetry.NewTrace("SelectIn")
		_, _, err := cached.SelectInCtx(ctx, col, list, tr)
		tally(tr, err, false)
	}
	where := func(preds ...RangePred) {
		tr := telemetry.NewTrace("SelectWhere")
		_, _, err := cached.SelectWhereCtx(ctx, preds, tr)
		tally(tr, err, false)
	}
	for round := 0; round < 6; round++ {
		at := func(i int) uint32 { return base[round*200+i] }
		for _, col := range []string{"a", "b"} { // sorted index, sharded epoch
			rng(col, at(0), at(120))  // miss
			rng(col, at(0), at(120))  // exact
			rng(col, at(20), at(90))  // contained
			rng(col, at(60), at(180)) // overlapping: miss
			pool := g.Lookups(base, 16)
			in(col, pool)                                     // miss
			in(col, pool)                                     // exact
			in(col, pool[3:11])                               // subset replay
			in(col, append(pool[:12:12], base[round*200]+1))  // near-superset: miss
			in(col, []uint32{pool[4], base[round*200+1] + 1}) // shares a first value only: miss
		}
		v := RangePred{Col: "v", Lo: 0, Hi: ^uint32(0) - uint32(round) - 1}
		where(RangePred{Col: "a", Lo: at(130), Hi: at(190)}, v)                                           // miss
		where(RangePred{Col: "a", Lo: at(130), Hi: at(190)}, v)                                           // exact
		where(RangePred{Col: "a", Lo: at(130), Hi: at(190)}, RangePred{Col: "b", Lo: at(0), Hi: at(120)}) // conjuncts hit
		where(RangePred{Col: "a", Lo: at(140), Hi: at(170)}, v)                                           // conjunct contained
		for pass := 0; pass < 2; pass++ {                                                                 // miss (first round), then hits brought current
			tr := telemetry.NewTrace("GroupAggregate")
			_, err := GroupAggregateCtx(ctx, cached, "a", "v", nil, tr)
			tally(tr, err, true)
		}
		batch := map[string][]uint32{"a": g.Lookups(base, 40), "b": g.Lookups(base, 40), "v": g.Lookups(base, 40)}
		if err := cached.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	s := cached.Cache().Stats()
	if s.ContainedHits != contained || s.SubsetHits != subset || s.AggregateHits != agg {
		t.Fatalf("counters disagree with EXPLAIN (contained %d, subset %d, agg %d): %+v", contained, subset, agg, s)
	}
	if s.Hits != exact+s.ContainedHits+s.SubsetHits+s.AggregateHits {
		t.Fatalf("Hits %d != exact %d + contained + subset + aggregate: %+v", s.Hits, exact, s)
	}
	if exact == 0 || contained == 0 || subset == 0 || agg == 0 || s.Patches == 0 {
		t.Fatalf("stream left a hit kind unexercised (exact %d): %+v", exact, s)
	}
	if s.StitchedHits != 0 || s.GapProbes != 0 || s.SupersetHits != 0 || s.MissingKeyProbes != 0 {
		t.Fatalf("a retired counter moved: %+v", s)
	}
	if cached.Generation() != 1 {
		t.Fatal("fold happened, stream invalid")
	}
}
