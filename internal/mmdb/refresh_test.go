package mmdb

// Tests for the cache's refresh-on-touch model at the engine level: an index
// built late must not inherit scan-order entries, a ShardedIndex reader
// pinned to an older epoch must miss what is fresher than it without
// disturbing it, and one absorb must cost the same whatever is resident.
// (The all-surfaces differential with the per-entry mark invariant lives
// next to the cache: internal/qcache/refresh_test.go.)

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cssidx"
	"cssidx/internal/workload"
)

// rangeRIDs recomputes lo ≤ col ≤ hi over the frozen segment s, bounds and
// weave both resolved afresh: what a reader pinned to s must be answered.
func (s *segment) rangeRIDs(lo, hi uint32) []uint32 {
	first, last := s.bounds(lo, hi)
	rids, _ := s.rangeMerged(lo, hi, first, last, false)
	return rids
}

// TestLateIndexBuildDropsScanOrderEntries: scan-path and index-path results
// share a fingerprint, so a row-order entry cached while the column had no
// index must not answer the index-planned query asked after BuildIndex or
// BuildShardedIndex — an uncached table returns (value, RID) order there.
func TestLateIndexBuildDropsScanOrderEntries(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			g := workload.New(7)
			base := g.SortedUniform(500)
			vals := g.Lookups(base, 4000)
			build := func() *Table {
				tab := NewTable("t")
				if err := tab.AddColumn("k", vals); err != nil {
					t.Fatal(err)
				}
				return tab
			}
			cached, plain := build(), build()
			cached.EnableCache(CacheOptions{MinCostNs: -1})
			lo, hi, list := base[100], base[120], []uint32{base[300], base[7], base[150], base[42]}
			ask := func(tag string, wantIndex bool) {
				t.Helper()
				for pass := 0; pass < 2; pass++ { // fill, then hit
					got, gp, err := cached.SelectRange("k", lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					want, _, _ := plain.SelectRange("k", lo, hi)
					mustEqualU32(t, fmt.Sprintf("%s range pass %d", tag, pass), got, want)
					gotIn, ip, err := cached.SelectIn("k", list)
					if err != nil {
						t.Fatal(err)
					}
					wantIn, _, _ := plain.SelectIn("k", list)
					mustEqualU32(t, fmt.Sprintf("%s IN pass %d", tag, pass), gotIn, wantIn)
					if gp.UseIndex != wantIndex || ip.UseIndex != wantIndex {
						t.Fatalf("%s: plans %+v / %+v, want UseIndex=%v", tag, gp, ip, wantIndex)
					}
					if len(want) < 2 || slices.IsSorted(want) == wantIndex || slices.IsSorted(wantIn) == wantIndex {
						t.Fatalf("%s: row order and index order coincide on this data; the test cannot tell them apart", tag)
					}
				}
			}
			ask("unindexed", false)
			for _, tab := range []*Table{cached, plain} {
				if sharded {
					six, err := tab.BuildShardedIndex("k", 4)
					if err != nil {
						t.Fatal(err)
					}
					defer six.Close()
				} else if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			ask("indexed late", true)
		})
	}
}

// TestRefreshRaceShardedStragglers pins ShardedIndex readers to the epoch
// they loaded and lets AppendRows run ahead of them.  The protocol first,
// step by step: a straggler misses an entry fresher than its epoch, answers
// from its own frozen snapshot, and its late insert is refused; the fresher
// entry keeps serving; an entry the straggler did admit is brought current —
// not dropped — by the next reader ahead of it.  Then the same under -race:
// whatever interleaving, a pinned reader's answer is its frozen epoch's
// recompute, never a row past it.
func TestRefreshRaceShardedStragglers(t *testing.T) {
	g := workload.New(83)
	base := g.SortedUniform(1500)
	build := func() (*Table, *SortedIndex) {
		tab := NewTable("t")
		tab.fold = neverFold
		if err := tab.AddColumn("x", g.Lookups(base, 4000)); err != nil {
			t.Fatal(err)
		}
		six, err := tab.BuildShardedIndex("x", 4)
		if err != nil {
			t.Fatal(err)
		}
		return tab, six
	}
	tab, six := build()
	defer six.Close()
	tab.EnableCache(CacheOptions{MinCostNs: -1})
	batch := func(n int) map[string][]uint32 { return map[string][]uint32{"x": g.Lookups(base, n)} }
	// pinned answers the range as a reader holding epoch s, and checks it
	// against s's own frozen recompute.
	pinned := func(s *epoch, lo, hi uint32) ([]uint32, error) {
		got, err := s.rangeQuery(env{}, lo, hi)
		if err != nil {
			return nil, err
		}
		want := s.rangeRIDs(lo, hi)
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("reader pinned at %+v: range [%d,%d] has %d rows, its epoch's recompute %d", s.tok, lo, hi, len(got), len(want))
		}
		if len(got) > 0 && uint64(slices.Max(got)) >= s.tok.Epoch {
			return nil, fmt.Errorf("reader pinned at %+v saw RID %d", s.tok, slices.Max(got))
		}
		return got, nil
	}
	must := func(rids []uint32, err error) []uint32 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rids
	}

	lo, hi := base[200], base[500] // a fifth of the values: every 300-row batch lands rows in it
	old := six.cur.Load()
	if err := tab.AppendRows(batch(300)); err != nil {
		t.Fatal(err)
	}
	fresh := must(six.SelectRange(lo, hi)) // the current epoch's entry
	s0 := tab.Cache().Stats()
	stale := must(pinned(old, lo, hi))
	if len(stale) >= len(fresh) {
		t.Fatalf("precondition: the batch added no row to [%d,%d]", lo, hi)
	}
	s1 := tab.Cache().Stats()
	if s1.Hits != s0.Hits || s1.Misses != s0.Misses+1 || s1.Rejects != s0.Rejects+1 || s1.Invalidations != s0.Invalidations || s1.Entries != s0.Entries {
		t.Fatalf("a straggler must miss the fresher entry and have its insert refused: %+v -> %+v", s0, s1)
	}
	mustEqualU32(t, "fresher entry after the straggler", must(six.SelectRange(lo, hi)), fresh)
	if s2 := tab.Cache().Stats(); s2.Hits != s1.Hits+1 || s2.Patches != s1.Patches {
		t.Fatalf("the fresher entry must keep serving untouched: %+v -> %+v", s1, s2)
	}
	lo2, hi2 := base[700], base[1000]
	must(pinned(old, lo2, hi2)) // admitted at the straggler's mark: nobody fresher holds it
	s3 := tab.Cache().Stats()
	must(pinned(six.cur.Load(), lo2, hi2))
	if s4 := tab.Cache().Stats(); s4.Hits != s3.Hits+1 || s4.Patches != s3.Patches+1 || s4.Invalidations != s3.Invalidations {
		t.Fatalf("the straggler's entry must be brought current by the next reader: %+v -> %+v", s3, s4)
	}

	const appends = 30
	batches := make([]map[string][]uint32, appends)
	for i := range batches {
		batches[i] = batch(60)
	}
	var stop atomic.Bool
	var rounds atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer rounds.Add(1 << 20) // a reader that gave up must not stall the writer
			for i := 0; !stop.Load(); i++ {
				rounds.Add(1)
				s := six.cur.Load() // held across queries: it goes stale under them
				for q := 0; q < 6; q++ {
					j := (i*31 + q*97 + r*13) % (len(base) - 320)
					if _, err := pinned(s, base[j], base[j+100+q*40]); err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}
		}(r)
	}
	for i, b := range batches {
		for rounds.Load() < int64(2*i) { // every append lands between reader rounds
			runtime.Gosched()
		}
		if err := tab.AppendRows(b); err != nil {
			t.Error(err)
			break
		}
		must(six.SelectRange(lo, hi)) // a reader ahead of whatever the stragglers left
	}
	stop.Store(true)
	wg.Wait()
	if s := tab.Cache().Stats(); s.Hits == 0 || s.Patches == 0 || s.Rejects == 0 {
		t.Fatalf("race exercised nothing: %+v", s)
	}
}
