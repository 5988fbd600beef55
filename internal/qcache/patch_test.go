package qcache

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cssidx/internal/sortu32"
)

// at is a reader at tok with no tail views: it hits entries that are current
// for it and drops the ones it is ahead of.
func at(tok Token) Reader { return Reader{Tok: tok} }

// tailRows is both tail views over explicit appended rows: row i of every
// column has RID start+i.  A column shorter than the longest one is missing
// from the later batches.
type tailRows struct {
	start uint32
	cols  map[string][]uint32
	col   string // the column the run view reads
}

func (t tailRows) rows() uint32 {
	n := 0
	for _, c := range t.cols {
		n = max(n, len(c))
	}
	return t.start + uint32(n)
}

// reader reads gen's rows [0, t.rows()) through both views.
func (t tailRows) reader(gen uint64) Reader {
	return Reader{Tok: Token{Gen: gen, Epoch: uint64(t.rows())}, Runs: t, Rows: t}
}

func (t tailRows) Column(col string, mark uint32) ([]uint32, bool) {
	c, ok := t.cols[col]
	if !ok || t.start+uint32(len(c)) < t.rows() {
		return nil, false
	}
	return c[mark-t.start:], true
}

func (t tailRows) Pairs(lo, hi, mark uint32) (vals, rids []uint32) {
	for i, v := range t.cols[t.col] {
		if rid := t.start + uint32(i); rid >= mark && v >= lo && v <= hi {
			vals, rids = append(vals, v), append(rids, rid)
		}
	}
	sortu32.SortPairs(vals, rids) // stable: RIDs stay ascending within a value
	return vals, rids
}

func (t tailRows) Equal(v, mark uint32, out []uint32) []uint32 {
	_, rids := t.Pairs(v, v, mark)
	return append(out, rids...)
}

// appended is the tail over column a's rows from RID 500 on, the shape most
// cases below use: entries are computed at mark 500.
func appended(cols map[string][]uint32) tailRows { return tailRows{start: 500, cols: cols, col: "a"} }

var mark500 = Token{Gen: 1, Epoch: 500}

func TestPatchRetokensNonIntersectingRange(t *testing.T) {
	c := New(admitAll(Options{}))
	c.InsertRange(rangeKey("t", "a", 10, 19), mark500, seq(10, 10), seq(100, 10), 10, Plan{})

	// Appended values all miss [10, 19]: the entry survives untouched, and
	// nothing happens to it until it is asked for.
	rd := appended(map[string][]uint32{"a": {3, 42, 99}}).reader(1)
	if s := c.Stats(); s.Patches != 0 {
		t.Fatalf("patches %d before any lookup", s.Patches)
	}
	got, tail, ok, _ := c.Lookup(rangeKey("t", "a", 10, 19), rd)
	if !ok || tail != 0 || len(got) != 10 || got[0] != 100 {
		t.Fatalf("re-stamped entry lost: ok=%v tail=%d got=%v", ok, tail, got)
	}
	// A straggler at the old mark no longer hits, and does not disturb the
	// fresher entry.
	if _, _, ok, _ := c.Lookup(rangeKey("t", "a", 10, 19), at(mark500)); ok {
		t.Fatal("old mark still served after the refresh")
	}
	// Containment reuse keeps working on the carried entry, now current.
	if got, kind, tail, _ := c.LookupRange(rangeKey("t", "a", 12, 14), rd); kind != HitContained || tail != Current || len(got) != 3 {
		t.Fatalf("containment on re-stamped entry: kind=%v tail=%d got=%v", kind, tail, got)
	}
	if s := c.Stats(); s.Patches != 1 {
		t.Fatalf("patches %d, want 1", s.Patches)
	}
}

func TestPatchMergesIntersectingRange(t *testing.T) {
	c := New(admitAll(Options{}))
	// keys 10,12,14,16 at rids 100..103.
	c.InsertRange(rangeKey("t", "a", 10, 16), mark500, []uint32{10, 12, 14, 16}, seq(100, 4), 10, Plan{})

	// Appended rows (rid 500: a=13) (501: a=99) (502: a=10) (503: a=11):
	// three qualify, one misses.
	rd := appended(map[string][]uint32{"a": {13, 99, 10, 11}}).reader(1)
	got, tail, ok, _ := c.Lookup(rangeKey("t", "a", 10, 16), rd)
	if !ok || tail != 3 {
		t.Fatalf("merged entry: ok=%v tail=%d", ok, tail)
	}
	// Value order with appended RIDs after resident ones on equal values:
	// 10(100) 10(502) 11(503) 12(101) 13(500) 14(102) 16(103).
	want := []uint32{100, 502, 503, 101, 500, 102, 103}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged rids %v, want %v", got, want)
	}
	// The merged key run serves subranges that include appended values.
	if got, kind, _, _ := c.LookupRange(rangeKey("t", "a", 11, 13), rd); kind != HitContained || fmt.Sprint(got) != fmt.Sprint([]uint32{503, 101, 500}) {
		t.Fatalf("containment over merged run: kind=%v got=%v", kind, got)
	}
}

// TestContainmentBringsItsSourceCurrent: the covering run of a containment
// hit is refreshed before it is sliced, and only that run.
func TestContainmentBringsItsSourceCurrent(t *testing.T) {
	c := New(admitAll(Options{}))
	c.InsertRange(rangeKey("t", "a", 10, 19), mark500, []uint32{10, 15}, []uint32{1, 2}, 10, Plan{})
	c.InsertRange(rangeKey("t", "a", 20, 29), mark500, []uint32{25}, []uint32{3}, 10, Plan{})
	rd := appended(map[string][]uint32{"a": {12, 27, 40}}).reader(1)
	got, kind, tail, _ := c.LookupRange(rangeKey("t", "a", 11, 16), rd)
	if kind != HitContained || tail != 1 || fmt.Sprint(got) != fmt.Sprint([]uint32{500, 2}) {
		t.Fatalf("contained: kind=%v tail=%d got=%v", kind, tail, got)
	}
	// A request the two runs only tile together is a miss: no entry answers
	// it alone, and neither run is touched for it.
	if got, kind, _, _ := c.LookupRange(rangeKey("t", "a", 12, 27), rd); kind != HitMiss || got != nil {
		t.Fatalf("overlapping request: kind=%v got=%v", kind, got)
	}
	if s := c.Stats(); s.Patches != 1 || s.Misses != 1 {
		t.Fatalf("patches %d misses %d, want the one covering run refreshed and one miss", s.Patches, s.Misses)
	}
}

func TestPatchAppendsToRowOrderRange(t *testing.T) {
	c := New(admitAll(Options{}))
	// Scan-path entry: row-order rids, no key run.
	c.InsertRangeRows(rangeKey("t", "a", 10, 19), mark500, []uint32{4, 7, 9}, 10, Plan{})
	rd := appended(map[string][]uint32{"a": {15, 3, 12}}).reader(1)
	got, tail, ok, _ := c.Lookup(rangeKey("t", "a", 10, 19), rd)
	if !ok || tail != 2 || fmt.Sprint(got) != fmt.Sprint([]uint32{4, 7, 9, 500, 502}) {
		t.Fatalf("row-order refresh: ok=%v tail=%d got=%v", ok, tail, got)
	}
}

func TestPatchInList(t *testing.T) {
	c := New(admitAll(Options{}))
	k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 7, N: 3}
	c.InsertIn(k, mark500, []uint32{5, 17, 40}, nil, []uint32{1, 2, 3}, 10, Plan{})

	// Appended values miss the list: carried over, through either view.
	tl := appended(map[string][]uint32{"a": {6, 39}})
	if got, _, ok, _ := c.Lookup(k, Reader{Tok: tl.reader(1).Tok, Runs: tl}); !ok || len(got) != 3 {
		t.Fatalf("IN entry not carried: ok=%v got=%v", ok, got)
	}
	// Appended value hits the list: dropped (mid-result splice impossible).
	tl.cols["a"] = append(tl.cols["a"], 17)
	if _, _, ok, _ := c.Lookup(k, tl.reader(1)); ok {
		t.Fatal("intersecting IN entry served after the append")
	}
	// A plain Insert (no value payload) cannot be carried: dropped.
	c.Insert(k, tl.reader(1).Tok, []uint32{1}, 10)
	tl.cols["a"] = append(tl.cols["a"], 6)
	if _, _, ok, _ := c.Lookup(k, tl.reader(1)); ok {
		t.Fatal("payload-free IN entry survived an append")
	}
}

func TestPatchGroupedInSplice(t *testing.T) {
	c := New(admitAll(Options{}))
	k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 9, N: 3}
	// First-occurrence order 17, 5, 40: groups {1, 2}, {3}, {} (40 empty).
	c.InsertIn(k, mark500, []uint32{17, 5, 40}, []uint32{0, 2, 3, 3}, []uint32{1, 2, 3}, 10, Plan{})

	// Appended rows (500: a=5) (501: a=40) (502: a=7): two hit the list and
	// splice into their groups instead of dropping the entry.
	tl := appended(map[string][]uint32{"a": {5, 40, 7}})
	got, tail, ok, _ := c.Lookup(k, tl.reader(1))
	if !ok || tail != 2 || fmt.Sprint(got) != fmt.Sprint([]uint32{1, 2, 3, 500, 501}) {
		t.Fatalf("grouped splice: ok=%v tail=%d got=%v", ok, tail, got)
	}
	// The refreshed entry still answers subset replays with the new rows.
	qk := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 10, N: 1}
	r, kind, tail, _ := c.LookupIn(qk, tl.reader(1), []uint32{5})
	if kind != HitSubset || tail != Current || fmt.Sprint(r) != fmt.Sprint([]uint32{3, 500}) {
		t.Fatalf("subset after splice: %v tail=%d %v", kind, tail, r)
	}
	// Rows with no listed value carry the entry untouched — here found as
	// the replay's source, which is brought current like any other hit.
	tl.cols["a"] = append(tl.cols["a"], 6, 39)
	if r, kind, tail, _ := c.LookupIn(qk, tl.reader(1), []uint32{5}); kind != HitSubset || tail != 0 {
		t.Fatalf("grouped carry through a replay: %v tail=%d %v", kind, tail, r)
	}
	if got, tail, ok, _ := c.Lookup(k, tl.reader(1)); !ok || tail != Current || len(got) != 5 {
		t.Fatalf("grouped carry: ok=%v tail=%d got=%v", ok, tail, got)
	}
}

func TestPatchAggregates(t *testing.T) {
	c := New(admitAll(Options{}))
	rows := []AggRow{{Value: 5, Count: 2, Sum: 30, Min: 10, Max: 20}}
	ka := Key{Table: "t", Col: "g", Kind: KindAgg, Hash: 1}
	c.InsertAgg(ka, mark500, "m", true, rows, 10)
	// Appended rows (g=5, m=7) and (g=9, m=100): group 5 extends, group 9
	// appears — exactly what recomputing over base ∪ delta would yield.
	tl := appended(map[string][]uint32{"g": {5, 9}, "m": {7, 100}})
	got, tail, ok, _ := c.LookupAgg(ka, tl.reader(1))
	want := []AggRow{
		{Value: 5, Count: 3, Sum: 37, Min: 7, Max: 20},
		{Value: 9, Count: 1, Sum: 100, Min: 100, Max: 100},
	}
	if !ok || tail != 2 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("agg merge: ok=%v tail=%d got=%v want=%v", ok, tail, got, want)
	}

	// An explicit-RID aggregate is re-stamped unchanged: appends never mutate
	// the rows it was computed over.
	ke := Key{Table: "t", Col: "g", Kind: KindAgg, Hash: 2, N: 3}
	c.InsertAgg(ke, tl.reader(1).Tok, "m", false, rows, 10)
	tl.cols["g"], tl.cols["m"] = append(tl.cols["g"], 5), append(tl.cols["m"], 1)
	if got, tail, ok, _ := c.LookupAgg(ke, tl.reader(1)); !ok || tail != 0 || fmt.Sprint(got) != fmt.Sprint(rows) {
		t.Fatalf("explicit-RID agg re-stamp: ok=%v tail=%d got=%v", ok, tail, got)
	}

	// A reader whose rows lack the measure column cannot extend an all-rows
	// aggregate: dropped.
	tl.cols["g"] = append(tl.cols["g"], 5)
	if _, _, ok, _ := c.LookupAgg(ka, tl.reader(1)); ok {
		t.Fatal("all-rows aggregate survived rows missing its measure column")
	}
}

func TestPatchWhereConjunction(t *testing.T) {
	c := New(admitAll(Options{}))
	k := Key{Table: "t", Kind: KindWhere, Hash: 11, N: 2}
	preds := []PredBound{{Col: "a", Lo: 10, Hi: 20}, {Col: "b", Lo: 0, Hi: 5}}
	c.InsertWhere(k, mark500, preds, []uint32{8, 9}, 10)

	// Rows (500: a=15,b=3 → qualifies) (501: a=15,b=9 → fails b)
	// (502: a=25,b=1 → fails a).
	tl := appended(map[string][]uint32{
		"a": {15, 15, 25},
		"b": {3, 9, 1},
	})
	got, tail, ok, _ := c.Lookup(k, tl.reader(1))
	if !ok || tail != 1 || fmt.Sprint(got) != fmt.Sprint([]uint32{8, 9, 500}) {
		t.Fatalf("where refresh: ok=%v tail=%d got=%v", ok, tail, got)
	}
	// Rows missing one conjunct column drop the entry.
	tl.cols["a"] = append(tl.cols["a"], 15)
	if _, _, ok, _ := c.Lookup(k, tl.reader(1)); ok {
		t.Fatal("where entry survived rows missing a conjunct column")
	}
}

func TestPatchDropsJoinsAndStragglers(t *testing.T) {
	c := New(admitAll(Options{}))
	jk := Key{Table: "t", Col: "k", Kind: KindJoin, Hash: 3}
	c.InsertPair(jk, mark500, []uint32{1}, []uint32{2}, 10)
	// An entry of the previous generation, and one fresher than the reader
	// from a racing insert that must be left alone.
	sk := rangeKey("t", "a", 0, 9)
	c.InsertRange(sk, Token{Gen: 0, Epoch: 400}, seq(0, 10), seq(0, 10), 10, Plan{})
	fk := rangeKey("t", "b", 0, 9)
	c.InsertRange(fk, Token{Gen: 1, Epoch: 900}, seq(0, 10), seq(0, 10), 10, Plan{})

	rd := appended(map[string][]uint32{"a": {100}, "b": {100}, "k": {100}}).reader(1)
	if _, _, ok, _ := c.LookupPair(jk, rd.Tok); ok {
		t.Fatal("join entry survived an append")
	}
	if _, _, ok, _ := c.Lookup(sk, rd); ok {
		t.Fatal("entry of an older generation served")
	}
	if _, _, ok, _ := c.Lookup(fk, rd); ok {
		t.Fatal("a reader saw rows past its own")
	}
	if s := c.Stats(); s.Invalidations != 2 || s.Entries != 1 {
		t.Fatalf("join and old generation reaped, fresher entry kept: %+v", s)
	}
	if _, _, ok, _ := c.Lookup(fk, at(Token{Gen: 1, Epoch: 900})); !ok {
		t.Fatal("a straggler removed an entry fresher than itself")
	}
}

// TestPatchScopesByColumnAndTable: a refresh touches the entry that was asked
// for and nothing else — not its column's other entries, not other columns,
// not other tables.
func TestPatchScopesByColumnAndTable(t *testing.T) {
	c := New(admitAll(Options{}))
	ka := rangeKey("t", "a", 0, 9)
	ka2 := rangeKey("t", "a", 20, 29)
	kb := rangeKey("t", "b", 0, 9)
	ko := rangeKey("other", "a", 0, 9)
	for _, k := range []Key{ka, ka2, kb, ko} {
		c.InsertRange(k, mark500, seq(k.Lo, 10), seq(0, 10), 10, Plan{})
	}
	if _, _, ok, _ := c.Lookup(ka, appended(map[string][]uint32{"a": {100}}).reader(1)); !ok {
		t.Fatal("asked-for entry not brought current")
	}
	for _, k := range []Key{ka2, kb, ko} {
		if _, tail, ok, _ := c.Lookup(k, at(mark500)); !ok || tail != Current {
			t.Fatalf("%+v was touched by another entry's refresh", k)
		}
	}
	if s := c.Stats(); s.Patches != 1 || s.Invalidations != 0 {
		t.Fatalf("one lookup ahead of its entry: %+v", s)
	}
}

func TestPatchByteAccounting(t *testing.T) {
	c := New(admitAll(Options{stripes: 1}))
	c.InsertRange(rangeKey("t", "a", 0, 99), mark500, seq(0, 50), seq(100, 50), 10, Plan{})
	before := c.Stats()
	c.Lookup(rangeKey("t", "a", 0, 99), appended(map[string][]uint32{"a": {5, 7}}).reader(1))
	after := c.Stats()
	if after.Entries != before.Entries {
		t.Fatalf("entry count moved: %d → %d", before.Entries, after.Entries)
	}
	if want := before.Bytes + 2*8; after.Bytes != want {
		t.Fatalf("bytes %d after merging 2 pairs, want %d", after.Bytes, want)
	}
}

// TestPatchConcurrentWithLookups races readers at different marks — each
// bringing the entries it hits current, or missing the ones a faster reader
// already carried past it — against each other and an appender; run with
// -race.  A reader must only ever see a payload that is whole and stops at
// its own rows.
func TestPatchConcurrentWithLookups(t *testing.T) {
	c := New(admitAll(Options{stripes: 4}))
	const base, batches = 100, 64
	// Row r ≥ base holds a = (r-base)*31 % 2000; the tail is immutable, and a
	// reader at mark m sees rows [0, m).
	all := tailRows{start: base, cols: map[string][]uint32{"a": make([]uint32, batches)}, col: "a"}
	for i := range all.cols["a"] {
		all.cols["a"][i] = uint32(i * 31 % 2000)
	}
	readerAt := func(m uint32) Reader {
		tl := tailRows{start: base, cols: map[string][]uint32{"a": all.cols["a"][:m-base]}, col: "a"}
		return tl.reader(0)
	}
	k := rangeKey("t", "a", 0, 1000)
	first := Token{Epoch: base}
	c.InsertRange(k, first, seq(0, base), seq(0, base), 10, Plan{})
	// Grouped-IN and aggregate entries ride along so the reuse lookups below
	// race real refresh targets ("a" doubles as the measure column).
	c.InsertIn(Key{Table: "t", Col: "a", Kind: KindIn, Hash: 97, N: 2},
		first, []uint32{5, 31}, []uint32{0, 1, 2}, []uint32{11, 12}, 10, Plan{})
	c.InsertAgg(Key{Table: "t", Col: "a", Kind: KindAgg, Hash: 98},
		first, "a", true, []AggRow{{Value: 5, Count: 1, Sum: 2, Min: 2, Max: 2}}, 10)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				m := uint32(base + (i*7+w*13)%(batches+1)) // marks out of order: stragglers and leaders
				rd := readerAt(m)
				if got, _, ok, _ := c.Lookup(k, rd); ok && (len(got) < base || slices.Max(got) >= m) {
					t.Errorf("reader at %d saw %d rows up to RID %d", m, len(got), slices.Max(got))
					return
				}
				c.LookupRange(rangeKey("t", "a", 3, 7), rd)
				// The reuse surfaces walk the same interval map and grouped
				// lists a refresh relinks; -race guards the walk.
				if r, _, _, _ := c.LookupIn(Key{Table: "t", Col: "a", Kind: KindIn, Hash: 99, N: 1}, rd, []uint32{31}); len(r) > 0 && slices.Max(r) >= m {
					t.Errorf("reader at %d replayed a row past its mark: %v", m, r)
					return
				}
				c.LookupAgg(Key{Table: "t", Col: "a", Kind: KindAgg, Hash: 98}, rd)
			}
		}(w)
	}
	wg.Wait()
	// Whatever order the readers ran in, the entry ends current for the
	// newest reader: all base rows plus the appended ones in [0, 1000].
	want := base
	for _, v := range all.cols["a"] {
		if v <= 1000 {
			want++
		}
	}
	if got, _, ok, _ := c.Lookup(k, readerAt(base+batches)); !ok || len(got) != want {
		t.Fatalf("entry after the race: ok=%v len=%d want %d", ok, len(got), want)
	}
}
