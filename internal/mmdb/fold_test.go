package mmdb

// Differential tests for the fold: it merges — each index merges its base
// with the tail's pairs, a grouped column's domain grows by a remap — and must
// publish arrays byte-identical to a table built from scratch over the same
// rows (NewTable + AddColumn + BuildIndex / BuildShardedIndex), which shares
// no code with the merge beyond the structure build.  One byte-driven
// operation stream serves the random differential and the fuzz target.

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

// foldCol is one column of a fold-differential table.
type foldCol struct {
	name string
	span int // 0 = the whole uint32 range (nearly every value new)
}

// byteStream hands out the bytes of a fuzz input; an exhausted stream reads
// as zeros and reports done.
type byteStream struct{ data []byte }

func (s *byteStream) done() bool { return len(s.data) == 0 }

func (s *byteStream) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// value draws one column value: within the column's span, with the domain's
// edge values 0 and MaxUint32 mixed in.
func (s *byteStream) value(c foldCol) uint32 {
	sel := s.next()
	switch {
	case sel < 8:
		return 0
	case sel < 16:
		return math.MaxUint32
	}
	v := uint32(sel)<<24 | uint32(s.next())<<12 | uint32(s.next())
	if c.span > 0 {
		v %= uint32(c.span)
	}
	return v
}

// checkAgainstScratch compares the live table's folded state byte for byte
// with a table built from scratch over the same raw columns: bounds, index
// arrays and answers, and — where a group-by built them — the domain and IDs.
func checkAgainstScratch(t *testing.T, tag string, live *Table, cols []foldCol) {
	t.Helper()
	if live.DeltaRows() != 0 {
		t.Fatalf("%s: %d rows still unfolded", tag, live.DeltaRows())
	}
	scratch := NewTable("scratch")
	for _, c := range cols {
		if err := scratch.AddColumn(c.name, live.cols[c.name].raw); err != nil {
			t.Fatal(err)
		}
	}
	defer scratch.Close()
	for _, c := range cols {
		got, want := live.cols[c.name], scratch.cols[c.name]
		if got.min != want.min || got.max != want.max {
			t.Fatalf("%s: column %s: bounds [%d,%d], a fresh column's [%d,%d]", tag, c.name, got.min, got.max, want.min, want.max)
		}
		if memo := got.grp.Load(); memo != nil {
			ref, _, err := want.groupsOf(len(want.raw), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if memo.dom.Len() != ref.dom.Len() {
				t.Fatalf("%s: column %s: domain of %d values, a fresh build's %d", tag, c.name, memo.dom.Len(), ref.dom.Len())
			}
			for id := range ref.dom.Len() {
				if memo.dom.Value(uint32(id)) != ref.dom.Value(uint32(id)) {
					t.Fatalf("%s: column %s: domain value %d differs from a fresh build's", tag, c.name, id)
				}
			}
			if !slices.Equal(memo.ids, ref.ids) {
				t.Fatalf("%s: column %s: memoized IDs differ from a fresh build's", tag, c.name)
			}
		}
		lo, hi := got.raw[0], got.raw[len(got.raw)/2]
		if lo > hi {
			lo, hi = hi, lo
		}
		if ix, ok := live.indexes[c.name]; ok {
			ref, err := scratch.buildIndex(c.name, ix.kind, ix.structure)
			if err != nil {
				t.Fatal(err)
			}
			s, r := ix.cur.Load(), ref.cur.Load()
			if !slices.Equal(s.keys, r.keys) || !slices.Equal(s.rids, r.rids) {
				t.Fatalf("%s: index on %s: base arrays differ from a from-scratch build", tag, c.name)
			}
			if len(s.runs) != 0 || s.tok.Epoch != uint64(live.rows) {
				t.Fatalf("%s: index on %s: %d runs left, rows covered %d of %d",
					tag, c.name, len(s.runs), s.tok.Epoch, live.rows)
			}
			if !slices.Equal(ix.SelectEqual(hi), ref.SelectEqual(hi)) {
				t.Fatalf("%s: index on %s: SelectEqual(%d) differs", tag, c.name, hi)
			}
			a, err1 := ix.SelectRange(lo, hi)
			b, err2 := ref.SelectRange(lo, hi)
			if err1 != err2 || !slices.Equal(a, b) {
				t.Fatalf("%s: index on %s: SelectRange(%d,%d) differs (%v, %v)", tag, c.name, lo, hi, err1, err2)
			}
		}
	}
}

// runFoldOps decodes one operation stream and checks every fold it causes.
// The first bytes pick the policy, the column count and each column's
// cardinality and indexes; then each operation is an append (empty = a
// Compact, whether or not runs are outstanding), an index build — which,
// landing on an unfolded tail, must hand the tail to the new index as one
// run for the next fold to merge — or a group-by, which builds the column's
// domain and IDs for every later fold to keep current.  The first column is
// grouped by before any append.
func runFoldOps(t *testing.T, data []byte) (folds int) {
	s := &byteStream{data: data}
	pol := []foldPolicy{{}, {denom: 2, minRows: 48}, foldEveryBatch}[s.next()%3]
	cols := make([]foldCol, 1+s.next()%3)
	sels := make([]byte, len(cols))
	live := NewTable("live")
	live.fold = pol
	defer live.Close()
	baseRows := int(s.next()) % 5 * 40 // 0 = every column starts empty
	for i := range cols {
		sels[i] = s.next()
		cols[i] = foldCol{name: string(rune('a' + i)), span: []int{6, 300, 0}[sels[i]%3]}
		vals := make([]uint32, baseRows)
		for j := range vals {
			vals[j] = s.value(cols[i])
		}
		if err := live.AddColumn(cols[i].name, vals); err != nil {
			t.Fatal(err)
		}
	}
	// sel's bits: 4 = an index searched by a level CSS-tree (16 = by
	// hashing, which has no ordered access; its base arrays fold alike), 8 =
	// a sharded index.  A column holds one index, so 4|8 means build, then
	// replace: the sharded build closes and supersedes the other.
	build := func(c foldCol, sel byte) {
		if sel&4 != 0 {
			kind := cssidx.KindLevelCSS
			if sel&16 != 0 {
				kind = cssidx.KindHash
			}
			if _, err := live.BuildIndex(c.name, kind, cssidx.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if sel&8 != 0 {
			if _, err := live.BuildShardedIndex(c.name, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	groupBy := func(c foldCol) {
		if _, err := GroupAggregate(live, c.name, c.name, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cols {
		build(c, sels[i])
	}
	groupBy(cols[0])
	for op := 0; !s.done(); op++ {
		b := s.next()
		if b >= 240 { // an index arrives late, maybe over an unfolded tail
			build(cols[int(b)%len(cols)], s.next())
			continue
		}
		if b >= 232 { // a group-by, maybe over an unfolded tail
			groupBy(cols[int(b)%len(cols)])
			continue
		}
		n := 0
		if b >= 16 {
			n = 1 + int(b)%97
		}
		batch := map[string][]uint32{}
		for _, c := range cols {
			vals := make([]uint32, n)
			for j := range vals {
				vals[j] = s.value(c)
			}
			batch[c.name] = vals
		}
		base0, gen0 := live.BaseRows(), live.Generation()
		if n == 0 {
			live.Compact()
		} else if err := live.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		if live.Generation() == gen0 {
			continue // absorbed
		}
		folds++
		if live.rows == 0 {
			continue
		}
		checkAgainstScratch(t, fmt.Sprintf("op %d (fold of rows %d..%d)", op, base0, live.rows), live, cols)
		if live.cols[cols[0].name].grp.Load() == nil {
			t.Fatalf("op %d: a fold dropped the domain and IDs of a grouped column", op)
		}
	}
	return folds
}

func TestFoldMergeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	folds := 0
	for stream := 0; stream < 90; stream++ {
		data := make([]byte, 400+rng.Intn(5000))
		rng.Read(data)
		data[0], data[1] = byte(stream), byte(stream/3) // every policy × every column count
		if stream%5 == 0 {
			data[2] = 0 // an empty table: the first fold has no base to merge into
		}
		folds += runFoldOps(t, data)
	}
	t.Logf("%d folds checked", folds)
	if folds < 500 {
		t.Fatalf("only %d folds checked", folds)
	}
}

// TestFoldPinnedCases walks the boundary cases by hand, one column of each
// index kind: a fold onto an empty table, forced folds with and without runs
// outstanding, an index built over an unfolded tail, values below the
// smallest and above the largest resident one, and a tail that brings no new
// value at all (the domain must be carried over, not rebuilt).
func TestFoldPinnedCases(t *testing.T) {
	cols := []foldCol{{name: "k"}, {name: "s"}, {name: "v"}}
	live := NewTable("live")
	defer live.Close()
	for _, c := range cols {
		if err := live.AddColumn(c.name, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	appendAll := func(vals ...uint32) {
		t.Helper()
		if err := live.AppendRows(map[string][]uint32{"k": vals, "s": vals, "v": vals}); err != nil {
			t.Fatal(err)
		}
	}
	folded := func(tag string) {
		t.Helper()
		checkAgainstScratch(t, tag, live, cols)
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

func FuzzFoldOps(f *testing.F) {
	f.Add([]byte{0, 2, 1, 4, 8, 2, 20, 30, 40, 50, 60, 70, 0, 90, 100, 110, 120, 130, 140, 150, 0, 0})
	f.Add([]byte{2, 1, 0, 13, 6, 200, 1, 2, 3, 9, 250, 251, 252, 17, 17, 17, 0, 248, 30, 31, 32, 33, 34, 35, 0})
	f.Add([]byte{1, 0, 4, 14, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 255, 0, 100, 5, 12, 0})
	f.Add(bytes.Repeat([]byte{7, 15, 31, 63, 127, 255, 0, 96}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 4096 {
			t.Skip()
		}
		runFoldOps(t, data)
	})
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
	checkAgainstScratch(t, "after the race", inner, []foldCol{{name: "k"}})
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
	cols := []foldCol{{name: "l", span: 300}, {name: "s", span: 300}, {name: "h", span: 300}, {name: "v"}}
	rng := rand.New(rand.NewSource(52))
	live := NewTable("live")
	defer live.Close()
	for _, c := range cols {
		if err := live.AddColumn(c.name, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.BuildIndex("l", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.BuildShardedIndex("s", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := live.BuildIndex("h", cssidx.KindHash, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	appendRows := func(n int) {
		t.Helper()
		batch := map[string][]uint32{}
		for _, c := range cols {
			vals := make([]uint32, n)
			for i := range vals {
				switch rng.Intn(12) {
				case 0:
					vals[i] = 0
				case 1:
					vals[i] = math.MaxUint32
				default:
					vals[i] = rng.Uint32()
					if c.span > 0 {
						vals[i] %= uint32(c.span)
					}
				}
			}
			batch[c.name] = vals
		}
		if err := live.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
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
	checkAgainstScratch(t, "append onto an empty base", live, cols)
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
	checkAgainstScratch(t, "Compact over runs", live, cols)

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
	checkAgainstScratch(t, "an append that folds over runs", live, cols)
	for _, c := range []string{"l", "s", "h"} {
		if live.cols[c].grp.Load() == nil {
			t.Fatalf("a fold dropped column %s's domain", c)
		}
	}
}
