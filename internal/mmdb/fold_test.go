package mmdb

// Tests of the fold: it weaves — each index weaves its base with the runs, a
// grouped column's domain grows by a remap — and must publish arrays
// byte-identical to a table built from scratch over the same rows (NewTable +
// AddColumn + BuildIndex / BuildShardedIndex), which shares no code with the
// weave beyond the structure build: checkAgainstScratch, which the table-ops
// generator applies after every fold it causes, and the boundary cases by
// hand.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
	"cssidx/internal/telemetry"
)

// checkAgainstScratch compares the live table's folded state byte for byte
// with a table built from scratch over the same raw columns: bounds, index
// arrays and probes, and — where a group-by built them — the domain and IDs.
// Nothing it asks goes through the result cache.
func checkAgainstScratch(t *testing.T, tag string, live *Table) {
	t.Helper()
	if live.DeltaRows() != 0 {
		t.Fatalf("%s: %d rows still unfolded", tag, live.DeltaRows())
	}
	scratch := NewTable("scratch")
	for _, name := range live.order {
		if err := scratch.AddColumn(name, live.cols[name].raw); err != nil {
			t.Fatal(err)
		}
	}
	defer scratch.Close()
	for _, name := range live.order {
		got, want := live.cols[name], scratch.cols[name]
		if got.min != want.min || got.max != want.max {
			t.Fatalf("%s: column %s: bounds [%d,%d], a fresh column's [%d,%d]", tag, name, got.min, got.max, want.min, want.max)
		}
		if memo := got.grp.Load(); memo != nil {
			ref, _, err := want.groupsOf(len(want.raw), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if memo.dom.Len() != ref.dom.Len() {
				t.Fatalf("%s: column %s: domain of %d values, a fresh build's %d", tag, name, memo.dom.Len(), ref.dom.Len())
			}
			for id := range ref.dom.Len() {
				if memo.dom.Value(uint32(id)) != ref.dom.Value(uint32(id)) {
					t.Fatalf("%s: column %s: domain value %d differs from a fresh build's", tag, name, id)
				}
			}
			if !slices.Equal(memo.ids, ref.ids) {
				t.Fatalf("%s: column %s: memoized IDs differ from a fresh build's", tag, name)
			}
		}
		ix, ok := live.indexes[name]
		if !ok {
			continue
		}
		ref, err := scratch.buildIndex(name, ix.kind, ix.structure)
		if err != nil {
			t.Fatal(err)
		}
		s, r := ix.cur.Load(), ref.cur.Load()
		if !slices.Equal(s.keys, r.keys) || !slices.Equal(s.rids, r.rids) {
			t.Fatalf("%s: index on %s: base arrays differ from a from-scratch build", tag, name)
		}
		if len(s.runs) != 0 || s.tok.Epoch != uint64(live.rows) {
			t.Fatalf("%s: index on %s: %d runs left, rows covered %d of %d",
				tag, name, len(s.runs), s.tok.Epoch, live.rows)
		}
		if len(got.raw) == 0 {
			continue
		}
		lo, hi := got.raw[0], got.raw[len(got.raw)/2]
		if lo > hi {
			lo, hi = hi, lo
		}
		if !slices.Equal(ix.SelectEqual(hi), ref.SelectEqual(hi)) {
			t.Fatalf("%s: index on %s: SelectEqual(%d) differs", tag, name, hi)
		}
		// The search structure, probed where no result cache sees it.
		if s.ord != nil {
			f1, l1 := s.bounds(lo, hi)
			if f2, l2 := r.bounds(lo, hi); f1 != f2 || l1 != l2 {
				t.Fatalf("%s: index on %s: range [%d,%d] spans base positions [%d,%d), a from-scratch build's [%d,%d)",
					tag, name, lo, hi, f1, l1, f2, l2)
			}
		}
	}
}

// TestFoldPinnedCases walks the boundary cases by hand, one column of each
// index kind: a fold onto an empty table, forced folds with and without runs
// outstanding, an index built over an unfolded tail, values below the
// smallest and above the largest resident one, and a tail that brings no new
// value at all (the domain must be carried over, not rebuilt).
func TestFoldPinnedCases(t *testing.T) {
	live := newOpsTable(t, NewTable("live"), []opsCol{{"k", int(cssidx.KindLevelCSS), 0}, {"s", ixNone, 0}, {"v", ixNone, 0}}, 0, nil).tab
	defer live.Close()
	appendAll := func(vals ...uint32) {
		t.Helper()
		if err := live.AppendRows(map[string][]uint32{"k": vals, "s": vals, "v": vals}); err != nil {
			t.Fatal(err)
		}
	}
	folded := func(tag string) {
		t.Helper()
		checkAgainstScratch(t, tag, live)
	}
	live.Compact() // nothing to fold, nothing to merge
	appendAll(500, 100, 300, 100, 900)
	folded("fold onto an empty table")
	// An unindexed column grouped by keeps its IDs through the folds below.
	if _, err := GroupAggregate(live, "v", "k", nil); err != nil {
		t.Fatal(err)
	}

	live.fold = neverFold
	appendAll(300, 100)
	appendAll(900)
	dom := live.cols["v"].grp.Load().dom
	if _, err := live.BuildShardedIndex("s", 2); err != nil { // the tail is its one run
		t.Fatal(err)
	}
	if runs := live.indexes["s"].cur.Load().runs; len(runs) != 1 || len(runs[0].rids) != 3 {
		t.Fatalf("late index: runs %v, want the 3-row tail as one run", runs)
	}
	live.Compact() // runs outstanding, every value already resident
	folded("forced fold over resident values")
	if live.cols["v"].grp.Load().dom != dom {
		t.Error("a tail of resident values rebuilt the domain")
	}
	live.Compact() // nothing outstanding
	folded("forced fold of nothing")

	appendAll(0, 99, 0)
	appendAll(math.MaxUint32, 901, math.MaxUint32, 0)
	live.Compact()
	folded("values below the smallest and above the largest")
	if keys := live.indexes["k"].cur.Load().keys; keys[0] != 0 || keys[len(keys)-1] != math.MaxUint32 {
		t.Errorf("index key edges %d..%d", keys[0], keys[len(keys)-1])
	}
	if k := live.cols["k"]; k.min != 0 || k.max != math.MaxUint32 {
		t.Errorf("column bounds %d..%d", k.min, k.max)
	}

	live.fold = foldEveryBatch
	for i := uint32(0); i < 20; i++ {
		appendAll(i*37%400, 1000+i, i*37%400)
		folded("merge per batch")
	}
}

// TestShardedReadersDuringFolds races readers against folding appends:
// range and IN selections on the sharded index (through the result cache)
// and a join probing a frozen segment must each return the oracle's answer
// for one of the epochs published while the call ran.  Every epoch covers a
// row prefix, and (value, RID) order survives dropping the RIDs past a
// prefix, so one oracle over the final rows serves every epoch.
func TestShardedReadersDuringFolds(t *testing.T) {
	const baseRows, batchRows, batches = 2000, 90, 36
	rng := rand.New(rand.NewSource(9))
	all := make([]uint32, baseRows+batches*batchRows)
	for i := range all {
		all[i] = uint32(rng.Intn(40 + i)) // the value range widens: every fold brings new values
	}
	inner := NewTable("inner")
	inner.fold = foldPolicy{denom: 20} // absorb a batch or two, then fold
	defer inner.Close()
	if err := inner.AddColumn("k", all[:baseRows]); err != nil {
		t.Fatal(err)
	}
	inner.EnableCache(CacheOptions{MinCostNs: -1})
	six, err := inner.BuildShardedIndex("k", 3)
	if err != nil {
		t.Fatal(err)
	}
	outerVals := make([]uint32, 64)
	for i := range outerVals {
		outerVals[i] = uint32(rng.Intn(3000))
	}
	outer := NewTable("outer")
	if err := outer.AddColumn("fk", outerVals); err != nil {
		t.Fatal(err)
	}

	// equalRIDs lists, per value, the final rows holding it, ascending.
	equalRIDs := map[uint32][]uint32{}
	for rid, v := range all {
		equalRIDs[v] = append(equalRIDs[v], uint32(rid))
	}
	// An answer element is a uint64 whose low half is the inner RID (the
	// high half carries a join pair's outer RID).
	type query struct {
		lo, hi uint32   // a range when values is nil
		values []uint32 // an IN-list (distinct)
		full   []uint64 // the answer over all final rows
	}
	widen := func(dst []uint64, rids []uint32) []uint64 {
		for _, rid := range rids {
			dst = append(dst, uint64(rid))
		}
		return dst
	}
	queries := make([]query, 12)
	for i := range queries {
		q := &queries[i]
		if i%2 == 0 {
			q.lo = uint32(rng.Intn(2500))
			q.hi = q.lo + uint32(rng.Intn(400))
			for v := q.lo; v <= q.hi; v++ {
				q.full = widen(q.full, equalRIDs[v])
			}
		} else {
			for _, j := range rng.Perm(3000)[:24] {
				q.values = append(q.values, uint32(j))
				q.full = widen(q.full, equalRIDs[uint32(j)])
			}
		}
	}
	var joinFull []uint64
	for o, v := range outerVals {
		for _, rid := range equalRIDs[v] {
			joinFull = append(joinFull, uint64(o)<<32|uint64(rid))
		}
	}
	// Epoch e (1 = the build, +1 per AppendRows) covers the first
	// baseRows+(e-1)*batchRows rows.  servedFrom reports whether got is full
	// cut to the rows of one epoch in [e0, e1].
	servedFrom := func(got, full []uint64, e0, e1 uint64) bool {
		for e := e0; e <= e1; e++ {
			rows := uint32(baseRows + (int(e)-1)*batchRows)
			cut := make([]uint64, 0, len(got))
			for _, el := range full {
				if uint32(el) < rows {
					cut = append(cut, el)
				}
			}
			if slices.Equal(got, cut) {
				return true
			}
		}
		return false
	}

	const readers = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served [3]int64
	var mu sync.Mutex
	// answers[w] counts reader w's checked answers; the writer waits for
	// every reader to answer once between appends, so every kind is served
	// while the folds land.
	var answers [readers]atomic.Int64
	reader := func(w int) {
		defer wg.Done()
		defer answers[w].Add(1 << 40) // a reader that gave up must not stall the writer
		r := rand.New(rand.NewSource(int64(100 + w)))
		kind := w % 3
		n := int64(0)
		for {
			select {
			case <-stop:
				mu.Lock()
				served[kind] += n
				mu.Unlock()
				return
			default:
			}
			e0 := six.Epoch()
			var got []uint64
			var err error
			what, full := "join", joinFull
			if kind == 2 {
				_, err = JoinWith(outer, "fk", six, JoinOptions{}, func(o, i uint32) { got = append(got, uint64(o)<<32|uint64(i)) })
			} else {
				q := &queries[2*r.Intn(len(queries)/2)+kind]
				what, full = fmt.Sprintf("range [%d,%d] / IN %v", q.lo, q.hi, q.values), q.full
				var rids []uint32
				if q.values == nil {
					rids, err = six.SelectRange(q.lo, q.hi)
				} else {
					rids = indexIn(six, q.values)
				}
				got = widen(nil, rids)
			}
			e1 := six.Epoch()
			if err != nil {
				t.Error(err)
				return
			}
			if !servedFrom(got, full, e0, e1) {
				t.Errorf("%s: %d results match no epoch in [%d,%d]", what, len(got), e0, e1)
				return
			}
			n++
			answers[w].Add(1)
		}
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go reader(w)
	}
	gen0 := inner.Generation()
	var marks [readers]int64
	for b := 0; b < batches; b++ {
		for w := range answers {
			for c := answers[w].Load(); c <= marks[w] && c < 1<<40; c = answers[w].Load() {
				runtime.Gosched()
			}
			marks[w] = answers[w].Load()
		}
		lo := baseRows + b*batchRows
		if err := inner.AppendRows(map[string][]uint32{"k": all[lo : lo+batchRows]}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if folds := inner.Generation() - gen0; folds < 8 {
		t.Fatalf("only %d folds raced the readers", folds)
	}
	t.Logf("served during %d folds: %d ranges, %d IN-lists, %d joins", inner.Generation()-gen0, served[0], served[1], served[2])
	for kind, n := range served {
		if n == 0 {
			t.Errorf("reader kind %d served nothing during the folds", kind)
		}
	}
	inner.Compact()
	checkAgainstScratch(t, "after the race", inner)
}

// TestRegisteredSeries pins the mmdb layer's metric catalogue: the query
// histograms per surface, the plan counters, the append histograms per
// outcome and the delta-rows lag gauge are scraped under these names, and the
// gauge follows absorb, fold and Close.
func TestRegisteredSeries(t *testing.T) {
	for _, name := range []string{`mmdb_plan_total{path="index"}`, `mmdb_plan_total{path="scan"}`, "mmdb_delta_rows"} {
		if _, ok := telemetry.Default.Value(name); !ok {
			t.Errorf("series %s not registered", name)
		}
	}
	var scrape bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mmdb_append_ns_count{outcome="absorb"}`, `mmdb_append_ns_count{outcome="fold"}`,
		`mmdb_query_ns_count{surface="range"}`, `mmdb_query_ns_count{surface="in"}`, `mmdb_query_ns_count{surface="where"}`,
		`mmdb_query_ns_count{surface="agg"}`, `mmdb_query_ns_count{surface="join"}`,
	} {
		if !strings.Contains(scrape.String(), want) {
			t.Errorf("scrape lacks %s", want)
		}
	}

	telemetry.Enable()
	defer telemetry.Disable()
	absorbs0, folds0, lag0 := histAbsorbNs.Count(), histFoldNs.Count(), gaugeDeltaRows.Value()
	tab := NewTable("lag")
	tab.fold = foldPolicy{minRows: 10}
	if err := tab.AddColumn("k", make([]uint32, 40)); err != nil {
		t.Fatal(err)
	}
	step := func(rows int, wantLag int64) {
		t.Helper()
		if err := tab.AppendRows(map[string][]uint32{"k": make([]uint32, rows)}); err != nil {
			t.Fatal(err)
		}
		if lag := gaugeDeltaRows.Value() - lag0; lag != wantLag {
			t.Fatalf("after %d more rows: mmdb_delta_rows moved by %d, want %d", rows, lag, wantLag)
		}
	}
	step(3, 3)
	step(4, 7)
	step(5, 0) // 12 rows ≥ minRows and ≥ 40/8: folded
	step(2, 2)
	tab.Close()
	tab.Close()
	if lag := gaugeDeltaRows.Value() - lag0; lag != 0 {
		t.Fatalf("a closed table still holds %d rows in mmdb_delta_rows", lag)
	}
	if a, f := histAbsorbNs.Count()-absorbs0, histFoldNs.Count()-folds0; a != 3 || f != 1 {
		t.Fatalf("append histograms recorded %d absorbs and %d folds, want 3 and 1", a, f)
	}
}

// TestFoldWeaveCases folds one table of every index kind — a level CSS-tree,
// a sharded and a hash index (all three also grouped by, so each fold carries
// a domain and IDs beside the weave), and an unindexed column — through
// each way a fold meets its runs, checking every fold against a from-scratch
// build: Compact of an empty table, an append onto the empty base (the batch
// is the weave's one run), Compact over absorbed runs with no batch, and an
// append that crosses the trigger with runs outstanding (the batch joins them).
func TestFoldWeaveCases(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	o := newOpsTable(t, NewTable("live"), []opsCol{{"l", int(cssidx.KindLevelCSS), 300}, {"s", ixSharded, 300},
		{"h", int(cssidx.KindHash), 300}, {"v", ixNone, 0}}, 0, nil)
	live := o.tab
	defer live.Close()
	appendRows := func(n int) {
		t.Helper()
		o.append(t, o.batch(n, func(c opsCol) uint32 {
			switch rng.Intn(12) {
			case 0:
				return 0
			case 1:
				return math.MaxUint32
			}
			return spreadValue(rng, c.span)
		}))
	}
	groupBy := func() {
		t.Helper()
		for _, c := range []string{"l", "s"} {
			if _, err := GroupAggregate(live, c, "v", nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	gen := live.Generation()
	live.Compact()
	for _, ix := range live.indexes {
		if s := ix.cur.Load(); len(s.keys) != 0 || len(s.rids) != 0 || len(s.runs) != 0 {
			t.Fatalf("Compact of an empty table: index %s holds %d keys, %d runs", ix.col.name, len(s.keys), len(s.runs))
		}
	}
	if live.Generation() == gen {
		t.Fatal("Compact of an empty table did not fold")
	}
	groupBy() // domains over no rows, kept current from here on

	appendRows(40) // onto an empty base: folds at once, the batch its only run
	checkAgainstScratch(t, "append onto an empty base", live)
	// The hash column's first group-by reads its index's keys and RIDs.
	if _, err := GroupAggregate(live, "h", "v", nil); err != nil {
		t.Fatal(err)
	}

	live.fold = neverFold
	for _, n := range []int{30, 12, 5, 2} { // each under half the last: four runs
		appendRows(n)
	}
	if runs := len(live.indexes["l"].cur.Load().runs); runs != 4 {
		t.Fatalf("%d runs outstanding, want 4", runs)
	}
	live.Compact()
	checkAgainstScratch(t, "Compact over runs", live)

	live.fold = foldPolicy{}
	for live.DeltaRows()*foldDenominator+20*foldDenominator < live.BaseRows() || live.DeltaRows() == 0 {
		appendRows(20)
	}
	if len(live.indexes["s"].cur.Load().runs) == 0 {
		t.Fatal("no runs outstanding before the triggering append")
	}
	gen = live.Generation()
	appendRows(20)
	if live.Generation() == gen {
		t.Fatal("the triggering append did not fold")
	}
	checkAgainstScratch(t, "an append that folds over runs", live)
	for _, c := range []string{"l", "s", "h"} {
		if live.cols[c].grp.Load() == nil {
			t.Fatalf("a fold dropped column %s's domain", c)
		}
	}
}
