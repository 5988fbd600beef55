package mmdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"cssidx"
	"cssidx/internal/workload"
)

// scaleBatch is the append size the ingest guard and benchmarks use: the
// end-to-end benchmark's 256-row durable append.
const scaleBatch = 256

// scaleTable is a two-column table with a sorted index on "k" whose reads
// return the same number of rows whatever the base size: the dictionary
// grows with the table (≈ 8 rows per distinct value), so a range over 100
// adjacent dictionary values is ≈ 800 rows and a 16-value IN-list ≈ 128
// rows at 50K rows and at 800K alike.  What is left to vary with the base is
// exactly what the delta layer must not touch on an absorb.
type scaleTable struct {
	tab  *Table
	ix   *SortedIndex
	g    *workload.Gen
	dict []uint32
}

func newScaleTable(tb testing.TB, baseRows int, pol foldPolicy) *scaleTable {
	tb.Helper()
	g := workload.New(int64(baseRows))
	s := &scaleTable{tab: NewTable("b"), g: g, dict: g.SortedUniform(baseRows / 8)}
	s.tab.fold = pol
	for _, c := range []string{"k", "v"} {
		if err := s.tab.AddColumn(c, g.Lookups(s.dict, baseRows)); err != nil {
			tb.Fatal(err)
		}
	}
	ix, err := s.tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s.ix = ix
	return s
}

func (s *scaleTable) batch(n int) map[string][]uint32 {
	return map[string][]uint32{"k": s.g.Lookups(s.dict, n), "v": s.g.Lookups(s.dict, n)}
}

func (s *scaleTable) append(tb testing.TB, n int) {
	tb.Helper()
	if err := s.tab.AppendRows(s.batch(n)); err != nil {
		tb.Fatal(err)
	}
}

// rangeBounds returns the i-th ≈800-row range.
func (s *scaleTable) rangeBounds(i int) (lo, hi uint32) {
	p := (i * 7919) % (len(s.dict) - 100)
	return s.dict[p], s.dict[p+100]
}

// absorbThenRead is the unit the guard measures and the benchmark times: one
// absorbed batch, then the first range read and the first IN read after it —
// the reads on which any state memoised per delta state would be rebuilt.
func (s *scaleTable) absorbThenRead(tb testing.TB, batch map[string][]uint32, i int, in []uint32) {
	if err := s.tab.AppendRows(batch); err != nil {
		tb.Fatal(err)
	}
	lo, hi := s.rangeBounds(i)
	rids, _, err := s.tab.SelectRange("k", lo, hi)
	if err != nil {
		tb.Fatal(err)
	}
	sinkInt += len(rids)
	rids, _, err = s.tab.SelectIn("k", in)
	if err != nil {
		tb.Fatal(err)
	}
	sinkInt += len(rids)
}

var sinkInt int

// TestAbsorbThenReadCostFollowsBatch is the delta layer's scaling guard: the
// bytes allocated by one 256-row absorb plus the first SelectRange and first
// SelectIn after it follow the batch and the results, not the table — equal
// within 2× from 50K to 800K base rows, and under a fixed cap.  A memoised
// merged image of base ∪ delta (8 B per table row, rebuilt by the first read
// after every absorb) fails it by two orders of magnitude at 800K.
func TestAbsorbThenReadCostFollowsBatch(t *testing.T) {
	const capBytes = 64 << 10
	bases := []int{50_000, 200_000, 800_000}
	if testing.Short() {
		bases = bases[:2]
	}
	var lo, hi uint64
	for _, base := range bases {
		s := newScaleTable(t, base, foldPolicy{})
		// Room for the appended rows up front: append's amortised doubling
		// of the raw columns is the table's cost, not the delta layer's,
		// and where it lands depends on the base size.  Four warm absorbs
		// then leave the tier at one 1024-pair run, so the measured absorb
		// stacks a second run at every base size.
		for _, c := range s.tab.cols {
			c.raw = slices.Grow(c.raw, 8*scaleBatch)
		}
		for i := 0; i < 4; i++ {
			s.append(t, scaleBatch)
		}
		batch, in := s.batch(scaleBatch), s.g.Lookups(s.dict, 16)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.absorbThenRead(t, batch, 1, in)
		runtime.ReadMemStats(&after)
		if s.tab.DeltaRows() != 5*scaleBatch || len(s.ix.cur.Load().runs) != 2 {
			t.Fatalf("base=%d: delta %d rows in %d runs, want %d in 2", base, s.tab.DeltaRows(), len(s.ix.cur.Load().runs), 5*scaleBatch)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("base=%d: absorb + first range + first IN allocate %d B", base, got)
		if got > capBytes {
			t.Errorf("base=%d: absorb + first reads allocate %d B, cap %d", base, got, capBytes)
		}
		if lo == 0 || got < lo {
			lo = got
		}
		hi = max(hi, got)
	}
	if hi > 2*lo {
		t.Errorf("absorb + first reads allocate %d…%d B across base sizes: cost follows the table", lo, hi)
	}
}

// BenchmarkAbsorbThenRead times absorbThenRead at three base sizes.  Folds
// are kept out of the timed region: when the next batch would cross the fold
// threshold, an untimed append folds first.
func BenchmarkAbsorbThenRead(b *testing.B) {
	for _, base := range []int{50_000, 200_000, 800_000} {
		b.Run(fmt.Sprintf("base=%dK", base/1000), func(b *testing.B) {
			s := newScaleTable(b, base, foldPolicy{})
			s.append(b, scaleBatch)
			in := s.g.Lookups(s.dict, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if s.tab.fold.shouldFold(s.tab.DeltaRows()+2*scaleBatch, s.tab.BaseRows()) {
					s.append(b, 2*scaleBatch)
				}
				batch := s.batch(scaleBatch)
				b.StartTimer()
				s.absorbThenRead(b, batch, i, in)
			}
		})
	}
}

// fillResident leaves n resident range entries (≈40 rows each) in the
// table's cache.
func (s *scaleTable) fillResident(tb testing.TB, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		p := (i * 7919) % (len(s.dict) - 100)
		if _, _, err := s.tab.SelectRange("k", s.dict[p], s.dict[p+5]); err != nil {
			tb.Fatal(err)
		}
	}
	if got := s.tab.Cache().Stats().Entries; got != int64(n) {
		tb.Fatalf("%d resident entries, want %d", got, n)
	}
}

// TestAbsorbCostIndependentOfResidentEntries is the cache side of the
// scaling guard: an absorbed append does nothing to the result cache, so the
// bytes one 256-row AppendRows allocates — a count, which the host cannot
// disturb — agree within 1.25× with 0, 500 and 5,000 entries resident.  A
// sweep that revalidates every resident entry per append allocates a
// successor per entry and fails it a hundredfold.
func TestAbsorbCostIndependentOfResidentEntries(t *testing.T) {
	var lo, hi uint64
	for _, resident := range []int{0, 500, 5000} {
		s := newScaleTable(t, 200_000, foldPolicy{})
		s.tab.EnableCache(CacheOptions{MinCostNs: -1})
		s.fillResident(t, resident)
		// As in TestAbsorbThenReadCostFollowsBatch: room for the rows up
		// front, and four warm absorbs so the measured one stacks a second
		// run at every residency.
		for _, c := range s.tab.cols {
			c.raw = slices.Grow(c.raw, 8*scaleBatch)
		}
		for i := 0; i < 4; i++ {
			s.append(t, scaleBatch)
		}
		batch := s.batch(scaleBatch)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.tab.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("resident=%d: one absorb allocates %d B", resident, got)
		if st := s.tab.Cache().Stats(); st.Entries != int64(resident) || st.Patches != 0 || st.Invalidations != 0 {
			t.Fatalf("resident=%d: absorbs touched the cache: %+v", resident, st)
		}
		if lo == 0 || got < lo {
			lo = got
		}
		hi = max(hi, got)
	}
	if 4*hi > 5*lo {
		t.Errorf("one absorb allocates %d…%d B across residencies: cost follows the cache", lo, hi)
	}
}

// BenchmarkAbsorbResident times one 256-row absorb on a 200K-row table with
// 0, 500 and 5,000 cache entries resident.  When the next batch would fold,
// the table is built afresh, untimed, and the entries admitted again: a fold
// would empty the cache and grow the base, and a base that grew with b.N
// would spread the same entries over ever more rows, until the cache evicts
// some of them.
func BenchmarkAbsorbResident(b *testing.B) {
	for _, resident := range []int{0, 500, 5000} {
		b.Run(fmt.Sprint(resident), func(b *testing.B) {
			fresh := func() *scaleTable {
				s := newScaleTable(b, 200_000, foldPolicy{})
				s.tab.EnableCache(CacheOptions{MinCostNs: -1})
				s.fillResident(b, resident)
				return s
			}
			s := fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if s.tab.fold.shouldFold(s.tab.DeltaRows()+scaleBatch, s.tab.BaseRows()) {
					s.tab.Close()
					s = fresh()
				}
				batch := s.batch(scaleBatch)
				b.StartTimer()
				if err := s.tab.AppendRows(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRangeWeave prices the read-time weave: the same ≈800-row ranges
// over a 200K-row base with a 16K-row delta folded in, held as one run, and
// held as six geometrically tiered runs.
func BenchmarkRangeWeave(b *testing.B) {
	const base = 200_000
	for _, c := range []struct {
		name    string
		pol     foldPolicy
		batches []int
	}{
		{"folded", foldEveryBatch, []int{16128}},
		{"runs=1", neverFold, []int{16128}},
		{"runs=6", neverFold, []int{8192, 4096, 2048, 1024, 512, 256}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := newScaleTable(b, base, c.pol)
			for _, n := range c.batches {
				s.append(b, n)
			}
			if want := len(c.batches); !c.pol.always && len(s.ix.cur.Load().runs) != want {
				b.Fatalf("%d live runs, want %d", len(s.ix.cur.Load().runs), want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo, hi := s.rangeBounds(i)
				rids, err := s.ix.SelectRange(lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				sinkInt += len(rids)
			}
		})
	}
}

// BenchmarkFold prices one fold at the end-to-end benchmark's shape: 800K
// base rows × 3 columns — "k" nearly all distinct and indexed, "c" 1,024
// categories and indexed, "v" ≈ half distinct and unindexed — with a 100K-row
// tail outstanding as delta runs.  ns/op is the whole fold (a Compact);
// domain-ms/op is the share spent in Column.fold — widening the bounds and
// sorting the indexed columns' tails (no column is grouped, so no domain
// grows) — and index-ms/op the rest: merging and building the two indexes.  Each iteration folds a shallow copy of the
// prepared table — a fold writes nothing it did not allocate.
func BenchmarkFold(b *testing.B) {
	const baseRows, tailRows = 800_000, 100_000
	rng := rand.New(rand.NewSource(24))
	gen := func(n int) map[string][]uint32 {
		cols := map[string][]uint32{"k": make([]uint32, n), "c": make([]uint32, n), "v": make([]uint32, n)}
		for i := 0; i < n; i++ {
			cols["k"][i], cols["c"][i], cols["v"][i] = rng.Uint32(), uint32(rng.Intn(1024)), uint32(rng.Intn(1<<20))
		}
		return cols
	}
	tmpl := NewTable("fold")
	tmpl.fold = neverFold
	base := gen(baseRows)
	for _, name := range []string{"k", "c", "v"} {
		if err := tmpl.AddColumn(name, base[name]); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"k", "c"} {
		if _, err := tmpl.BuildIndex(name, cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	for done := 0; done < tailRows; done += 1000 {
		if err := tmpl.AppendRows(gen(1000)); err != nil {
			b.Fatal(err)
		}
	}
	clone := func() *Table {
		t := NewTable(tmpl.name)
		t.rows, t.baseRows, t.order = tmpl.rows, tmpl.baseRows, tmpl.order
		for name, c := range tmpl.cols {
			cc := &Column{name: c.name, raw: c.raw, min: c.min, max: c.max}
			cc.grp.Store(c.grp.Load())
			t.cols[name] = cc
		}
		for name, ix := range tmpl.indexes {
			cix := &SortedIndex{tbl: t, col: t.cols[name], kind: ix.kind, structure: ix.structure}
			s := *ix.cur.Load()
			s.tbl = t
			cix.cur.Store(&s)
			t.indexes[name] = cix
		}
		return t
	}
	var domain time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		folded := clone()
		if folded.Compact(); folded.DeltaRows() != 0 {
			b.Fatal("Compact left rows outstanding")
		}
		b.StopTimer()
		t := clone()
		start := time.Now()
		for _, name := range t.order {
			t.cols[name].fold(t.baseRows)
		}
		domain += time.Since(start)
		b.StartTimer()
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(domain), "domain-ms/op")
	b.ReportMetric(perOp(b.Elapsed()-domain), "index-ms/op")
}
