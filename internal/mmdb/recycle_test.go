package mmdb

// Differential tests for the intermediate-reuse (recycler) paths:
// containment, IN-list subset replay and GroupAggregate caching must stay
// bit-identical to uncached execution — across every ordered index kind,
// absorbed appends and sharded epoch swaps — on streams of overlapping
// windows and near-superset lists, which no single entry answers and which
// must therefore miss, execute and admit.  The hit-kind counters prove which
// paths served.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
	"cssidx/internal/telemetry"
	"cssidx/internal/workload"
)

// recyclePair builds cached/plain twins with one sorted index of the given
// kind on "a", a sharded index on "b", and a measure column "v", with folds
// disabled so appends absorb (the recycler's home turf).
func recyclePair(t *testing.T, kind cssidx.Kind, n int, seed int64) (cached, plain *Table, g *workload.Gen, base []uint32) {
	t.Helper()
	g = workload.New(seed)
	base = g.SortedUniform(n / 2)
	cols := map[string][]uint32{
		"a": g.Lookups(base, n),
		"b": g.Lookups(base, n),
		"v": g.Lookups(base, n),
	}
	build := func() *Table {
		tab := NewTable("t")
		tab.fold = neverFold
		for _, c := range []string{"a", "b", "v"} {
			if err := tab.AddColumn(c, cols[c]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tab.BuildIndex("a", kind, cssidx.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.BuildShardedIndex("b", 4); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	cached = build()
	cached.EnableCache(CacheOptions{MinCostNs: -1})
	plain = build()
	return cached, plain, g, base
}

// orderedKinds returns every index kind with ordered access (range surface).
func orderedKinds() []cssidx.Kind {
	var out []cssidx.Kind
	for _, k := range cssidx.Kinds() {
		if k != cssidx.KindHash {
			out = append(out, k)
		}
	}
	return out
}

// TestOverlappingRangesDifferential marches an overlapping window across the
// value space — the shifting-dashboard pattern — interleaved with absorbed
// appends, on every ordered index kind.  Every window must be bit-identical
// to the uncached twin; no single cached run covers a window, so none is
// answered from the cache, and the repeat of a window is an exact hit.
func TestOverlappingRangesDifferential(t *testing.T) {
	for _, kind := range orderedKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			cached, plain, g, base := recyclePair(t, kind, 4000, 41)
			vals := base
			width := len(vals) / 12 // ~8% selectivity: index path
			step := width / 4
			for q := 0; q*step+width < len(vals); q++ {
				lo, hi := vals[q*step], vals[q*step+width]
				want, _, err := plain.SelectRange("a", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := cached.SelectRange("a", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualU32(t, fmt.Sprintf("%v window %d", kind, q), got, want)
				if q%5 == 4 { // absorb mid-stream: later windows weave the delta in
					batch := map[string][]uint32{
						"a": g.Lookups(base, 40), "b": g.Lookups(base, 40), "v": g.Lookups(base, 40),
					}
					if err := cached.AppendRows(batch); err != nil {
						t.Fatal(err)
					}
					if err := plain.AppendRows(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			s := cached.Cache().Stats()
			if s.StitchedHits != 0 || s.GapProbes != 0 || s.Hits != 0 {
				t.Fatalf("%v: an overlapping window was answered from the cache: %+v", kind, s)
			}
			lo, hi := vals[step], vals[step+width]
			want, _, err := plain.SelectRange("a", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := cached.SelectRange("a", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualU32(t, fmt.Sprintf("%v repeated window", kind), got, want)
			if s := cached.Cache().Stats(); s.Hits != 1 || s.ContainedHits != 0 {
				t.Fatalf("%v: the repeat of a window was not an exact hit: %+v", kind, s)
			}
			if cached.Generation() != 1 {
				t.Fatalf("%v: fold happened, stream invalid", kind)
			}
		})
	}
}

// TestOverlappingWhereConjunct checks the SelectWhere conjunct path the same
// way: a conjunct that only overlaps an earlier query's cached run is a miss
// that executes and admits, and its repeat is an exact conjunct hit.
func TestOverlappingWhereConjunct(t *testing.T) {
	cached, plain, _, base := recyclePair(t, cssidx.KindLevelCSS, 4000, 43)
	lo1, hi1 := base[100], base[360]
	lo2, hi2 := base[200], base[460] // overlaps [lo1, hi1]
	if _, _, err := cached.SelectRange("a", lo1, hi1); err != nil {
		t.Fatal(err)
	}
	preds := []RangePred{{Col: "a", Lo: lo2, Hi: hi2}, {Col: "v", Lo: 0, Hi: ^uint32(0) - 1}}
	want, _, err := plain.SelectWhere(preds)
	if err != nil {
		t.Fatal(err)
	}
	before := cached.Cache().Stats()
	got, _, err := cached.SelectWhere(preds)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualU32(t, "overlapping where", got, want)
	s := cached.Cache().Stats()
	if s.StitchedHits != 0 || s.GapProbes != 0 || s.Hits != before.Hits {
		t.Fatalf("an overlapping conjunct was answered from the cache: %+v -> %+v", before, s)
	}
	// The conjunct's run was admitted: a different conjunction sharing it
	// finds it by exact match.
	preds[1].Hi--
	want, _, err = plain.SelectWhere(preds)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = cached.SelectWhere(preds)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualU32(t, "overlapping where, conjunct repeated", got, want)
	if r := cached.Cache().Stats(); r.Hits != s.Hits+1 || r.ContainedHits != s.ContainedHits {
		t.Fatalf("the repeated conjunct was not an exact hit: %+v -> %+v", s, r)
	}
}

// TestInSubsetNearSupersetDifferential replays subset IN-lists from a cached
// grouped entry and recomputes near-supersets, on a column under a sorted
// index and on one under a sharded index, across absorbed appends.
func TestInSubsetNearSupersetDifferential(t *testing.T) {
	cached, plain, g, base := recyclePair(t, cssidx.KindLevelCSS, 4000, 47)
	pool := g.Lookups(base, 24)

	check := func(tag string, list []uint32) {
		t.Helper()
		for _, col := range []string{"a", "b"} {
			want, _, err := plain.SelectIn(col, list)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := cached.SelectIn(col, list)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualU32(t, tag+" "+col, got, want)
		}
	}

	check("fill", pool) // seeds the grouped entries
	check("subset", pool[3:15])
	check("subset-reordered", []uint32{pool[9], pool[2], pool[5]})
	near := append(append([]uint32(nil), pool...), base[7]+1) // one unseen value
	s := cached.Cache().Stats()
	check("near-superset", near)
	if r := cached.Cache().Stats(); r.Hits != s.Hits || r.Misses != s.Misses+2 || r.Inserts != s.Inserts+2 {
		t.Fatalf("a near-superset was not a miss that admits, once per layer: %+v -> %+v", s, r)
	}
	s = cached.Cache().Stats()
	check("near-superset repeated", near)
	if r := cached.Cache().Stats(); r.Hits != s.Hits+2 || r.SubsetHits != s.SubsetHits || r.Misses != s.Misses {
		t.Fatalf("the repeat of a near-superset was not an exact hit: %+v -> %+v", s, r)
	}
	if s = cached.Cache().Stats(); s.SubsetHits == 0 || s.SupersetHits != 0 || s.MissingKeyProbes != 0 {
		t.Fatalf("IN reuse: subset replay never engaged, or a retired counter moved: %+v", s)
	}

	// Absorb, then replay: grouped entries must splice and keep serving.
	batch := map[string][]uint32{
		"a": g.Lookups(pool, 60), "b": g.Lookups(pool, 60), "v": g.Lookups(pool, 60),
	}
	if err := cached.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	if err := plain.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	check("post-absorb fill", pool)
	check("post-absorb subset", pool[1:9])
	if s := cached.Cache().Stats(); s.Patches == 0 {
		t.Fatalf("no entry was brought current after an absorb: %+v", s)
	}
}

// TestGroupAggregateCachedDifferential covers the aggregate cache through
// repeats (hits), absorbs (the next hit merges the tail), folds (drop +
// recompute) and explicit-RID sources (re-stamped entries).
func TestGroupAggregateCachedDifferential(t *testing.T) {
	cached, plain, g, base := recyclePair(t, cssidx.KindLevelCSS, 4000, 53)

	checkAgg := func(tag string, rids []uint32) {
		t.Helper()
		want, err := GroupAggregate(plain, "a", "v", rids)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := GroupAggregate(cached, "a", "v", rids)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s pass %d: %d groups, want %d", tag, pass, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s pass %d [%d]: %+v, want %+v", tag, pass, i, got[i], want[i])
				}
			}
		}
	}

	checkAgg("all-rows", nil)
	sub, _, err := plain.SelectRange("a", base[10], base[len(base)/4])
	if err != nil {
		t.Fatal(err)
	}
	checkAgg("explicit-rids", sub)
	checkAgg("empty-rids", []uint32{}) // distinct fingerprint from nil
	if s := cached.Cache().Stats(); s.AggregateHits == 0 {
		t.Fatalf("aggregate cache never hit: %+v", s)
	}

	// Absorb: the all-rows entry must patch to the recomputed answer.
	for round := 0; round < 3; round++ {
		batch := map[string][]uint32{
			"a": g.Lookups(base, 50), "b": g.Lookups(base, 50), "v": g.Lookups(base, 50),
		}
		if err := cached.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		if err := plain.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		checkAgg(fmt.Sprintf("post-absorb %d", round), nil)
		checkAgg(fmt.Sprintf("post-absorb %d explicit", round), sub)
	}

	// Fold: entries drop, recompute must refill and match.
	cached.fold = foldPolicy{}
	plain.fold = foldPolicy{}
	batch := map[string][]uint32{
		"a": g.Lookups(base, 3000), "b": g.Lookups(base, 3000), "v": g.Lookups(base, 3000),
	}
	if err := cached.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	if err := plain.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	if cached.Generation() != 2 {
		t.Fatal("fold expected")
	}
	checkAgg("post-fold", nil)
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
	cached, _, g, base := recyclePair(t, cssidx.KindLevelCSS, 4000, 61)

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
