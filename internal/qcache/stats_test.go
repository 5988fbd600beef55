package qcache

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsSnapshotConsistent: a snapshot taken while workers settle
// miss-becomes-hit trades (NoteStitch) must never observe half a trade.
// Each worker iteration counts one miss and immediately settles it, so at
// any instant the un-settled misses number at most one per worker; a torn
// read of the trade would show Hits != StitchedHits or Misses outside
// [0, workers].  The old global-atomic counters failed exactly this way.
func TestStatsSnapshotConsistent(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	const workers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := rangeKey("t", "a", uint32(100*w), uint32(100*w+9))
			for !stop.Load() {
				if _, _, ok := c.Lookup(k, at(tok)); ok {
					t.Error("unexpected hit")
					return
				}
				c.NoteStitch(k, 2)
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		s := c.StatsSnapshot()
		if s.Hits != s.StitchedHits {
			t.Fatalf("torn trade: Hits=%d StitchedHits=%d", s.Hits, s.StitchedHits)
		}
		if s.Misses < 0 || s.Misses > workers {
			t.Fatalf("Misses=%d outside [0,%d]", s.Misses, workers)
		}
		if s.GapProbes != 2*s.StitchedHits {
			t.Fatalf("GapProbes=%d, want %d", s.GapProbes, 2*s.StitchedHits)
		}
	}
	stop.Store(true)
	wg.Wait()
	s := c.StatsSnapshot()
	if s.Misses != 0 {
		t.Fatalf("settled state Misses=%d, want 0", s.Misses)
	}
}

// TestContainedHitCountsOnce: a containment hit settles inside one lock
// acquisition — exactly one Hit, one ContainedHit, zero Misses.
func TestContainedHitCountsOnce(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	c.InsertRange(rangeKey("t", "a", 0, 99), tok, seq(0, 100), seq(0, 100), 10)
	if _, kind, _ := c.LookupRange(rangeKey("t", "a", 10, 19), at(tok)); kind == HitMiss {
		t.Fatal("containment miss")
	}
	s := c.StatsSnapshot()
	if s.Hits != 1 || s.ContainedHits != 1 || s.Misses != 0 {
		t.Fatalf("stats %+v", s)
	}
}
