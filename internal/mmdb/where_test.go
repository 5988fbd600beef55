package mmdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cssidx"
	"cssidx/internal/governor"
)

// whereCols are one column per access path a conjunct can take — k under a
// level CSS-tree, h hashed (so a range scans), s sharded, u unindexed — for
// a table of base rows.  A column's base values are the even numbers below
// twice its span (whereBase); appended ones are any below twice its span
// plus 8 (whereTail), so a tail holds values no base row does.
func whereCols(base int) []opsCol {
	return []opsCol{{"k", int(cssidx.KindLevelCSS), uint32(base/2 + 1)}, {"h", int(cssidx.KindHash), 16},
		{"s", ixSharded, uint32(base/8 + 1)}, {"u", ixNone, 64}}
}

func whereBase(rng *rand.Rand) func(opsCol) uint32 {
	return func(c opsCol) uint32 { return 2 * uint32(rng.Intn(int(c.span))) }
}

func whereTail(rng *rand.Rand) func(opsCol) uint32 {
	return func(c opsCol) uint32 { return uint32(rng.Intn(2*int(c.span) + 8)) }
}

// whereOps builds whereCols over base rows with folds off, then absorbs a
// tail of tail rows.
func whereOps(t testing.TB, rng *rand.Rand, base, tail int) *opsTable {
	t.Helper()
	w := newOpsTable(t, NewTable("w"), whereCols(base), base, whereBase(rng))
	w.tab.fold = neverFold
	absorbTail(t, w, rng, tail)
	return w
}

// absorbTail appends n rows drawn by whereTail, in batches of 1–32.
func absorbTail(t testing.TB, w *opsTable, rng *rand.Rand, n int) {
	t.Helper()
	for done := 0; done < n; {
		m := min(1+rng.Intn(32), n-done)
		w.append(t, w.batch(m, whereTail(rng)))
		done += m
	}
}

// wherePred draws one conjunct on a column of w: usually a range between two
// values, sometimes open-ended (Hi = MaxUint32), inverted (Lo > Hi), or an
// odd point, which no base row holds.
func wherePred(w *opsTable, rng *rand.Rand) RangePred {
	return wherePredOn(w, rng, w.cols[rng.Intn(len(w.cols))].name)
}

func wherePredOn(w *opsTable, rng *rand.Rand, c string) RangePred {
	top := 2*int(w.col(c).span) + 8
	lo := uint32(rng.Intn(top))
	switch rng.Intn(8) {
	case 0:
		return RangePred{Col: c, Lo: lo, Hi: math.MaxUint32}
	case 1:
		return RangePred{Col: c, Lo: lo + 1, Hi: lo}
	case 2:
		return RangePred{Col: c, Lo: lo | 1, Hi: lo | 1}
	}
	// Narrow ranges on k and s keep their plans on the index.
	width := 1 + rng.Intn(max(1, top/16))
	if rng.Intn(3) == 0 {
		width = rng.Intn(top)
	}
	return RangePred{Col: c, Lo: lo, Hi: lo + uint32(width)}
}

// checkWhere holds a conjunction's answer to a scan of the rows.
func checkWhere(t *testing.T, w *opsTable, tag string, preds []RangePred) {
	t.Helper()
	got, _, err := w.tab.SelectWhere(preds)
	if err != nil {
		t.Fatalf("%s %v: %v", tag, preds, err)
	}
	if want := w.scan(preds); !slices.Equal(got, want) {
		t.Fatalf("%s %v:\n got %v\nwant %v", tag, preds, got, want)
	}
}

// mustPoolZero takes a map from the pool, requires it all-zero and puts it
// back.
func mustPoolZero(t *testing.T, tag string) {
	t.Helper()
	bm := ridMaps.Get().(*[]uint64)
	defer ridMaps.Put(bm)
	for i, word := range *bm {
		if word != 0 {
			t.Fatalf("%s: pooled row map word %d = %#x, want all-zero", tag, i, word)
		}
	}
}

// TestSelectWhereEmptyConjunctShortCircuits: a conjunct the plan proves
// empty answers the conjunction alone — the other conjuncts are neither
// probed nor offered to the cache.
func TestSelectWhereEmptyConjunctShortCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := whereOps(t, rng, 1000, 0)
	qc := w.tab.EnableCache(CacheOptions{MinCostNs: -1})
	for _, empty := range []RangePred{{Col: "k", Lo: 9, Hi: 3}, {Col: "s", Lo: 7, Hi: 7}} {
		before := qc.Stats()
		got, plans, err := w.tab.SelectWhere([]RangePred{{Col: "u", Lo: 0, Hi: 40}, empty})
		if err != nil || len(got) != 0 || len(plans) != 2 {
			t.Fatalf("%v: got %v, %d plans, %v", empty, got, len(plans), err)
		}
		if after := qc.Stats(); after.Hits+after.Misses != before.Hits+before.Misses {
			t.Fatalf("%v: an empty conjunction reached the cache: %+v → %+v", empty, before, after)
		}
	}
	// With an unfolded tail, an empty frozen ID range is not empty: the
	// tail may hold the value.
	w = whereOps(t, rng, 1000, 200)
	odd := slices.IndexFunc(w.raw["k"], func(v uint32) bool { return v%2 == 1 })
	if odd < 0 {
		t.Fatal("the tail holds no value outside the dictionary")
	}
	v := w.raw["k"][odd]
	checkWhere(t, w, "tail", []RangePred{{Col: "u", Lo: 0, Hi: math.MaxUint32}, {Col: "k", Lo: v, Hi: v}})
}

// TestBitmapIntersect drives the intersection kernel directly: sets in row
// order and shuffled, empty sets, RIDs 0 and rows-1, owned and borrowed —
// the map all-zero after every call, aborted ones included, the first filter
// run against the smallest set's marks, every borrowed set unwritten, and
// the result never a borrowed set's memory.
func TestBitmapIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		rows := 1 + rng.Intn(700)
		bm := make([]uint64, (rows+63)/64+rng.Intn(3))
		k := 1 + rng.Intn(4)
		sets := make([]ridSet, k)
		in := make([][]bool, k)
		for i := range sets {
			sets[i].own = rng.Intn(2) == 0
			in[i] = make([]bool, rows)
			density := rng.Float64()
			if rng.Intn(6) == 0 {
				density = 0 // the empty set
			}
			for r := 0; r < rows; r++ {
				edge := (r == 0 || r == rows-1) && trial%2 == 0
				if edge || rng.Float64() < density {
					in[i][r] = true
					sets[i].rids = append(sets[i].rids, uint32(r))
				}
			}
			if rs := sets[i].rids; rng.Intn(2) == 0 {
				rng.Shuffle(len(rs), func(a, b int) { rs[a], rs[b] = rs[b], rs[a] })
			}
		}
		var borrowed, before [][]uint32
		for _, s := range sets {
			if !s.own {
				borrowed, before = append(borrowed, s.rids), append(before, slices.Clone(s.rids))
			}
		}
		var want []uint32
		for r := 0; r < rows; r++ {
			all := true
			for i := range in {
				all = all && in[i][r]
			}
			if all {
				want = append(want, uint32(r))
			}
		}
		smallest := len(sets[0].rids)
		for _, s := range sets {
			smallest = min(smallest, len(s.rids))
		}
		firstCheck := true
		check := func() error {
			if firstCheck {
				firstCheck = false
				if n := popcount(bm); n != smallest {
					t.Fatalf("trial %d: first filter runs against %d marks, want the smallest set's %d", trial, n, smallest)
				}
			}
			return nil
		}
		abort := trial%5 == 4
		if abort {
			check = func() error { return context.Canceled }
		}
		got, err := bitmapIntersect(bm, sets, check)
		if n := popcount(bm); n != 0 {
			t.Fatalf("trial %d (abort=%v): %d bits left set", trial, abort, n)
		}
		for i, b := range borrowed {
			if !slices.Equal(b, before[i]) {
				t.Fatalf("trial %d: a borrowed set was written: %v, was %v", trial, b, before[i])
			}
			if len(got) > 0 && len(b) > 0 && &got[0] == &b[0] {
				t.Fatalf("trial %d: the result is a borrowed set's memory", trial)
			}
		}
		if abort && k > 1 && smallest > 0 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: abort returned %v", trial, err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d rows, %d sets): got %v, %v\nwant %v", trial, rows, k, got, err, want)
		}
	}
}

func popcount(bm []uint64) int {
	n := 0
	for _, w := range bm {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// TestSelectWhereAbortLeavesPoolZero: a conjunction stopped by its byte
// budget or a cancelled context returns the row map clean.
func TestSelectWhereAbortLeavesPoolZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := whereOps(t, rng, 4000, 100)
	preds := []RangePred{{Col: "u", Lo: 0, Hi: 60}, {Col: "h", Lo: 0, Hi: 20}, {Col: "k", Lo: 0, Hi: 1000}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{"budget": governor.WithBudget(context.Background(), 256), "cancelled": ctx} {
		if _, _, err := w.tab.SelectWhereCtx(ctx, preds, nil); err == nil {
			t.Fatalf("%s: conjunction not aborted", name)
		}
		mustPoolZero(t, name)
	}
	checkWhere(t, w, "after aborts", preds)
	mustPoolZero(t, "after aborts")
}

// TestConcurrentSelectWhere runs oracle-checked conjunctions from four
// goroutines on one cached table, all sharing the row-map pool.
func TestConcurrentSelectWhere(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := whereOps(t, rng, 3000, 300)
	w.tab.EnableCache(CacheOptions{})
	questions := make([][]RangePred, 40)
	want := make([][]uint32, len(questions))
	for i := range questions {
		questions[i] = []RangePred{wherePred(w, rng), wherePred(w, rng)}
		if i%3 == 0 {
			questions[i] = append(questions[i], wherePred(w, rng))
		}
		want[i] = w.scan(questions[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 150; n++ {
				i := (g*17 + n*7) % len(questions)
				got, _, err := w.tab.SelectWhere(questions[i])
				if err == nil && !slices.Equal(got, want[i]) {
					err = fmt.Errorf("%v: got %d rows, want %d", questions[i], len(got), len(want[i]))
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mustPoolZero(t, "after concurrent readers")
}

// BenchmarkSelectWhere prices one uncached conjunction in the shape of the
// end-to-end dss_adhoc WHERE: 2M rows, k uniform over uint32 under a level
// CSS-tree with a range covering 0.02–0.2% of its domain, d over 4,096
// values under an 8-way sharded index with a range spanning 1–4 values —
// two RID sets of hundreds to a few thousand rows whose intersection is a
// handful.
func BenchmarkSelectWhere(b *testing.B) {
	const rows, dValues = 2_000_000, 4096
	rng := rand.New(rand.NewSource(27))
	k, d := make([]uint32, rows), make([]uint32, rows)
	for i := range k {
		k[i], d[i] = rng.Uint32(), uint32(rng.Intn(dValues))
	}
	tab := NewTable("fact")
	if err := tab.AddColumn("k", k); err != nil {
		b.Fatal(err)
	}
	if err := tab.AddColumn("d", d); err != nil {
		b.Fatal(err)
	}
	if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		b.Fatal(err)
	}
	six, err := tab.BuildShardedIndex("d", 8)
	if err != nil {
		b.Fatal(err)
	}
	defer six.Close()
	queries := make([][]RangePred, 256)
	for i := range queries {
		share := 0.0002 + 0.0018*rng.Float64()
		width := uint32(share * math.MaxUint32)
		lo := uint32(rng.Int63n(int64(math.MaxUint32 - width)))
		span := 1 + rng.Intn(4)
		dlo := uint32(rng.Intn(dValues - span + 1))
		queries[i] = []RangePred{{Col: "k", Lo: lo, Hi: lo + width}, {Col: "d", Lo: dlo, Hi: dlo + uint32(span) - 1}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.SelectWhere(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
