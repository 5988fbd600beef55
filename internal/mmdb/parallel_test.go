package mmdb

import (
	"fmt"
	"sync"
	"testing"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// parallelForce builds worker options that engage at any batch size.
func parallelForce(w int) parallel.Options {
	return parallel.Options{Workers: w, MinBatchPerWorker: 1}
}

// joinPairs collects a join's emission stream.
type joinPairs struct{ outer, inner []uint32 }

func collectJoin(t *testing.T, outer *Table, col string, inner *SortedIndex, opts JoinOptions) (int, joinPairs) {
	t.Helper()
	var p joinPairs
	n, err := JoinWith(outer, col, inner, opts, func(o, i uint32) {
		p.outer = append(p.outer, o)
		p.inner = append(p.inner, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(p.outer) {
		t.Fatalf("join count %d != emitted %d", n, len(p.outer))
	}
	return n, p
}

func buildJoinTables(t *testing.T, seed int64, innerRows, outerRows int) (*Table, *Table) {
	t.Helper()
	g := workload.New(seed)
	innerKeys := g.SortedWithDuplicates(innerRows, 3)
	outerVals := append(g.Lookups(innerKeys, outerRows*3/4), g.Misses(innerKeys, outerRows/4)...)
	inner := NewTable("inner")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		t.Fatal(err)
	}
	outer := NewTable("outer")
	if err := outer.AddColumn("k", outerVals); err != nil {
		t.Fatal(err)
	}
	return inner, outer
}

// TestJoinShardedMatchesSortedIndex proves the sharded inner path emits the
// exact pair stream of the SortedIndex path: same domain, same stable radix
// sort, same emission order.
func TestJoinShardedMatchesSortedIndex(t *testing.T) {
	inner, outer := buildJoinTables(t, 41, 6000, 4000)
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := inner.BuildShardedIndex("k", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, bs := range []int{0, 1, 64, 700} {
		nSorted, pSorted := collectJoin(t, outer, "k", ix, JoinOptions{batch: bs})
		nSharded, pSharded := collectJoin(t, outer, "k", sh, JoinOptions{batch: bs})
		if nSorted != nSharded {
			t.Fatalf("bs=%d: sorted %d pairs, sharded %d", bs, nSorted, nSharded)
		}
		for i := range pSorted.outer {
			if pSorted.outer[i] != pSharded.outer[i] || pSorted.inner[i] != pSharded.inner[i] {
				t.Fatalf("bs=%d pair %d: sorted (%d,%d) sharded (%d,%d)", bs, i,
					pSorted.outer[i], pSorted.inner[i], pSharded.outer[i], pSharded.inner[i])
			}
		}
	}
}

// TestJoinParallelMatchesSequential proves worker count never changes the
// join result: same count, same pairs, same order.
func TestJoinParallelMatchesSequential(t *testing.T) {
	inner, outer := buildJoinTables(t, 42, 5000, 6000)
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := inner.BuildShardedIndex("k", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, in := range []*SortedIndex{ix, sh} {
		_, want := collectJoin(t, outer, "k", in, JoinOptions{par: parallel.Options{Workers: 1}})
		for _, par := range []parallel.Options{
			{Workers: 4, MinBatchPerWorker: 256},
			{Workers: 3, MinBatchPerWorker: 1},
		} {
			_, got := collectJoin(t, outer, "k", in, JoinOptions{batch: 128, par: par})
			if len(got.outer) != len(want.outer) {
				t.Fatalf("par=%+v: %d pairs, want %d", par, len(got.outer), len(want.outer))
			}
			for i := range want.outer {
				if got.outer[i] != want.outer[i] || got.inner[i] != want.inner[i] {
					t.Fatalf("par=%+v pair %d: got (%d,%d) want (%d,%d)", par, i,
						got.outer[i], got.inner[i], want.outer[i], want.inner[i])
				}
			}
		}
	}
}

// TestJoinShardedDuringAppendRows drives joins against a sharded inner while
// AppendRows publish new epochs: every join must see one consistent epoch —
// counts only ever grow as later joins freeze later epochs, and each count
// matches a legal epoch state.  Run with -race.
func TestJoinShardedDuringAppendRows(t *testing.T) {
	const hot = uint32(424242)
	g := workload.New(43)
	base := g.SortedDistinct(4000)
	inner := NewTable("inner")
	if err := inner.AddColumn("k", base); err != nil {
		t.Fatal(err)
	}
	sh, err := inner.BuildShardedIndex("k", 4)
	if err != nil {
		t.Fatal(err)
	}
	outer := NewTable("outer")
	outerVals := make([]uint32, 512)
	for i := range outerVals {
		outerVals[i] = hot
	}
	if err := outer.AddColumn("k", outerVals); err != nil {
		t.Fatal(err)
	}

	const appends = 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := 0; a < appends; a++ {
			// Each append adds one more `hot` row (plus noise rows).
			if err := inner.AppendRows(map[string][]uint32{"k": {hot, uint32(900000 + a)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	lastCount := -1
	for i := 0; i < 200; i++ {
		sh2, ok := inner.ShardedIndex("k")
		if !ok {
			t.Fatal("sharded index vanished")
		}
		n, err := JoinWith(outer, "k", sh2, JoinOptions{
			batch: 64,
			par:   parallel.Options{Workers: 4, MinBatchPerWorker: 64},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Each hot occurrence matches all 512 outer rows: count must be a
		// multiple of 512 ranging over the epoch states 0..appends.
		if n%512 != 0 || n/512 > appends {
			t.Fatalf("join %d: count %d is not a consistent epoch state", i, n)
		}
		if n < lastCount {
			t.Fatalf("join %d: count went backwards (%d after %d) — epochs mixed", i, n, lastCount)
		}
		lastCount = n
	}
	wg.Wait()
	_ = sh
	// After all appends land, a final join must see every hot row.
	shFinal, _ := inner.ShardedIndex("k")
	n, err := JoinWith(outer, "k", shFinal, JoinOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != appends*512 {
		t.Fatalf("final join count %d, want %d", n, appends*512)
	}
	shFinal.Close()
}

// TestSelectInParallelMatchesSequential proves the parallel IN-list fan-out
// returns the identical RID stream on both index types.
func TestSelectInParallelMatchesSequential(t *testing.T) {
	g := workload.New(44)
	keys := g.SortedWithDuplicates(9000, 4)
	tbl := NewTable("t")
	if err := tbl.AddColumn("k", keys); err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := tbl.BuildShardedIndex("k", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	values := append(g.Lookups(keys, 6000), g.Misses(keys, 2000)...)

	// The sequential oracle: per-value equal ranges in list order.
	want := indexIn(ix, values)
	got := indexIn(sh, values)
	if len(got) != len(want) {
		t.Fatalf("sharded SelectIn %d rids, sorted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rid %d: sharded %d, sorted %d", i, got[i], want[i])
		}
	}
}

// TestInDriverMatchesRebuiltOracle pins the one IN driver (segment.selectIn)
// to what the three drivers it replaced produced: for every listed value in
// list order, the RIDs of the rows holding it, ascending — which is what an
// index rebuilt over all rows returns — on an ordered SortedIndex, a hash
// SortedIndex and a sharded epoch, with and without delta runs, at one
// worker and at four, with and without group offsets.
func TestInDriverMatchesRebuiltOracle(t *testing.T) {
	g := workload.New(45)
	base := g.SortedWithDuplicates(6000, 3)
	vals := g.Shuffled(base)
	tbl := NewTable("t")
	tbl.fold = neverFold
	for _, c := range []string{"o", "h", "s"} {
		if err := tbl.AddColumn(c, vals); err != nil {
			t.Fatal(err)
		}
	}
	ord, err := tbl.BuildIndex("o", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := tbl.BuildIndex("h", cssidx.KindHash, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := tbl.BuildShardedIndex("s", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	all := vals
	list := dedupeValues(append(g.Lookups(base, 2500), g.Misses(base, 700)...)) // several chunks, some absent

	check := func(tag string) {
		t.Helper()
		rowsOf := map[uint32][]uint32{}
		for rid, v := range all {
			rowsOf[v] = append(rowsOf[v], uint32(rid))
		}
		var want, wantOff []uint32
		for _, v := range list {
			wantOff = append(wantOff, uint32(len(want)))
			want = append(want, rowsOf[v]...)
		}
		wantOff = append(wantOff, uint32(len(want)))
		segs := map[string]*segment{"ordered": &ord.cur.Load().segment, "hash": &hash.cur.Load().segment, "sharded": &sh.cur.Load().segment}
		for name, seg := range segs {
			for _, w := range []int{1, 4} {
				for _, groups := range []bool{false, true} {
					what := fmt.Sprintf("%s %s workers=%d groups=%v", tag, name, w, groups)
					got, goff, err := seg.selectIn(nil, list, groups, parallelForce(w))
					if err != nil {
						t.Fatal(err)
					}
					mustEqualU32(t, what+" rows", got, want)
					if groups {
						mustEqualU32(t, what+" offsets", goff, wantOff)
					} else if goff != nil {
						t.Fatalf("%s: offsets returned unasked", what)
					}
				}
			}
		}
	}
	check("base")
	for round := 0; round < 3; round++ {
		batch := append(g.Lookups(base, 150), g.Misses(base, 50)...)
		all = append(all, batch...)
		if err := tbl.AppendRows(map[string][]uint32{"o": batch, "h": batch, "s": batch}); err != nil {
			t.Fatal(err)
		}
		list = dedupeValues(append(list, batch[:40]...)) // values only the runs hold
	}
	if len(ord.cur.Load().runs) == 0 || tbl.DeltaRows() != 600 {
		t.Fatalf("appends did not absorb: %d runs, %d delta rows", len(ord.cur.Load().runs), tbl.DeltaRows())
	}
	check("runs")
}

// BenchmarkParallelJoin drives the §2.2 join through the worker pool at one,
// four and GOMAXPROCS workers.
func BenchmarkParallelJoin(b *testing.B) {
	g := workload.New(3)
	innerN, outerN := 1_000_000, 1<<17
	if testing.Short() {
		innerN, outerN = 100_000, 1<<15
	}
	innerKeys := g.SortedUniform(innerN)
	inner, outer := NewTable("inner"), NewTable("outer")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		b.Fatal(err)
	}
	if err := outer.AddColumn("k", g.Lookups(innerKeys, outerN)); err != nil {
		b.Fatal(err)
	}
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := JoinWith(outer, "k", ix, JoinOptions{par: parallel.Options{Workers: w}}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(outerN)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
		})
	}
}

// BenchmarkJoinOverRuns is an emitting join against an inner index with
// eight delta runs outstanding, streamed on one worker and staged across
// GOMAXPROCS: every probe value also searches each run.
func BenchmarkJoinOverRuns(b *testing.B) {
	g := workload.New(5)
	innerN, outerN, batch := 1_000_000, 1<<17, 256
	if testing.Short() {
		innerN, outerN, batch = 100_000, 1<<15, 32
	}
	innerKeys := g.SortedUniform(innerN)
	inner, outer := NewTable("inner"), NewTable("outer")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		b.Fatal(err)
	}
	if err := outer.AddColumn("k", g.Lookups(innerKeys, outerN)); err != nil {
		b.Fatal(err)
	}
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for range 255 {
		if err := inner.AppendRows(map[string][]uint32{"k": g.Lookups(innerKeys, batch)}); err != nil {
			b.Fatal(err)
		}
	}
	if runs := len(ix.cur.Load().runs); runs != 8 {
		b.Fatalf("%d runs outstanding, want 8", runs)
	}
	for _, w := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := JoinWith(outer, "k", ix, JoinOptions{par: parallel.Options{Workers: w}}, func(o, i uint32) {}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(outerN)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
		})
	}
}
