package qcache

import (
	"sync"
	"sync/atomic"
	"testing"

	"cssidx/internal/telemetry"
)

// TestStatsSnapshotConsistent: a snapshot taken while workers settle subset
// replays must never observe half a settlement.  A replay moves Hits and
// SubsetHits under the one stripe lock LookupIn holds, so a torn read would
// show Hits != SubsetHits; and since no lookup trades a counted miss back any
// more, Misses never moves at all.  The old global-atomic counters failed
// exactly this way.
func TestStatsSnapshotConsistent(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	const workers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		col := string(rune('a' + w))
		c.InsertIn(Key{Table: "t", Col: col, Kind: KindIn, Hash: 1, N: 3}, tok, []uint32{5, 9, 17}, []uint32{0, 1, 2, 3}, []uint32{1, 2, 3}, 10, Plan{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := Key{Table: "t", Col: col, Kind: KindIn, Hash: 2, N: 2}
			for !stop.Load() {
				if _, kind, _, _ := c.LookupIn(k, at(tok), []uint32{17, 5}); kind != HitSubset {
					t.Errorf("subset not replayed: %v", kind)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := c.Stats()
		if s.Hits != s.SubsetHits {
			t.Fatalf("torn settlement: Hits=%d SubsetHits=%d", s.Hits, s.SubsetHits)
		}
		if s.Misses != 0 {
			t.Fatalf("Misses=%d on a stream of replays", s.Misses)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestContainedHitCountsOnce: a containment hit settles inside one lock
// acquisition — exactly one Hit, one ContainedHit, zero Misses.
func TestContainedHitCountsOnce(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	c.InsertRange(rangeKey("t", "a", 0, 99), tok, seq(0, 100), seq(0, 100), 10, Plan{})
	if _, kind, _, _ := c.LookupRange(rangeKey("t", "a", 10, 19), at(tok)); kind == HitMiss {
		t.Fatal("containment miss")
	}
	s := c.Stats()
	if s.Hits != 1 || s.ContainedHits != 1 || s.Misses != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestRegisteredSeries pins the metric catalogue's hit-kind series: the three
// reuse classes and the first-sight deferrals are scraped, and the series of the two deleted partial-reuse
// paths are not registered at all (their Stats fields survive only for the
// end-to-end benchmark's report).
func TestRegisteredSeries(t *testing.T) {
	r := telemetry.NewRegistry()
	New(Options{}).RegisterMetrics(r)
	for _, name := range []string{"qcache_hits_total", "qcache_contained_hits_total", "qcache_subset_hits_total", "qcache_agg_hits_total", "qcache_deferred_total"} {
		if _, ok := r.Value(name); !ok {
			t.Errorf("series %s not registered", name)
		}
	}
	for _, name := range []string{"qcache_stitched_hits_total", "qcache_gap_probes_total", "qcache_superset_hits_total", "qcache_missing_key_probes_total"} {
		if _, ok := r.Value(name); ok {
			t.Errorf("retired series %s still registered", name)
		}
	}
}
