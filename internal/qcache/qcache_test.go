package qcache

import (
	"fmt"
	"sync"
	"testing"
)

// admitAll admits every result regardless of cost.
func admitAll(opts Options) Options {
	opts.MinCostNs = -1
	return opts
}

func rangeKey(table, col string, lo, hi uint32) Key {
	return Key{Table: table, Col: col, Kind: KindRange, Lo: lo, Hi: hi}
}

func seq(lo, n uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = lo + uint32(i)
	}
	return out
}

func TestExactHitMissAndCopy(t *testing.T) {
	c := New(admitAll(Options{}))
	k := rangeKey("t", "a", 5, 9)
	tok := Token{Gen: 1}
	if _, _, ok, _ := c.Lookup(k, at(tok)); ok {
		t.Fatal("hit on empty cache")
	}
	rids := []uint32{3, 1, 4}
	c.Insert(k, tok, rids, 10)
	rids[0] = 99 // caller mutates after insert; cached copy must not see it
	got, _, ok, _ := c.Lookup(k, at(tok))
	if !ok {
		t.Fatal("miss after insert")
	}
	if got[0] != 3 || got[1] != 1 || got[2] != 4 {
		t.Fatalf("got %v, want [3 1 4]", got)
	}
	got[1] = 77 // mutating a hit must not corrupt the cache
	again, _, _, _ := c.Lookup(k, at(tok))
	if again[1] != 1 {
		t.Fatalf("cached copy corrupted: %v", again)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTokenMismatchInvalidates(t *testing.T) {
	c := New(admitAll(Options{}))
	k := rangeKey("t", "a", 0, 4)
	c.Insert(k, Token{Gen: 1}, seq(0, 4), 10)
	if _, _, ok, _ := c.Lookup(k, at(Token{Gen: 2})); ok {
		t.Fatal("stale token must miss")
	}
	s := c.Stats()
	if s.Invalidations != 1 || s.Entries != 0 {
		t.Fatalf("stats %+v", s)
	}
	// The old token cannot resurrect the dropped entry.
	if _, _, ok, _ := c.Lookup(k, at(Token{Gen: 1})); ok {
		t.Fatal("invalidated entry served")
	}
}

func TestStragglerDoesNotEvictFresh(t *testing.T) {
	c := New(admitAll(Options{}))
	k := rangeKey("t", "a", 0, 4)
	fresh := Token{Epoch: 6}
	stale := Token{Epoch: 5}
	c.Insert(k, fresh, seq(10, 4), 10)
	// A reader still holding the pre-swap epoch must miss without
	// evicting the current epoch's entry...
	if _, _, ok, _ := c.Lookup(k, at(stale)); ok {
		t.Fatal("stale token hit the fresh entry")
	}
	if got, _, ok, _ := c.Lookup(k, at(fresh)); !ok || got[0] != 10 {
		t.Fatal("fresh entry evicted by a straggler lookup")
	}
	// ...and its late insert must not clobber it either.
	c.Insert(k, stale, seq(99, 4), 10)
	if got, _, ok, _ := c.Lookup(k, at(fresh)); !ok || got[0] != 10 {
		t.Fatal("straggler insert clobbered the fresh entry")
	}
	if _, _, ok, _ := c.Lookup(k, at(stale)); ok {
		t.Fatal("rejected stale insert is being served")
	}
}

func TestContainmentReuse(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	// Cached run covers closed values [10, 19]: keys 10..19, rids 100..109.
	keys := seq(10, 10)
	rids := seq(100, 10)
	c.InsertRange(rangeKey("t", "a", 10, 19), tok, keys, rids, 10, Plan{})

	got, kind, _, _ := c.LookupRange(rangeKey("t", "a", 13, 16), at(tok))
	if kind != HitContained {
		t.Fatal("contained subrange missed")
	}
	want := []uint32{103, 104, 105, 106}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Point subrange within coverage: closed bounds include the value.
	if got, kind, _, _ := c.LookupRange(rangeKey("t", "a", 15, 15), at(tok)); kind == HitMiss || len(got) != 1 || got[0] != 105 {
		t.Fatalf("point subrange: kind=%v got=%v", kind, got)
	}
	// Not contained: extends past the cached run.
	if _, kind, _, _ := c.LookupRange(rangeKey("t", "a", 15, 25), at(tok)); kind != HitMiss {
		t.Fatal("non-contained range hit")
	}
	// Wrong token: no containment across epochs.
	if _, kind, _, _ := c.LookupRange(rangeKey("t", "a", 13, 16), at(Token{Gen: 2})); kind != HitMiss {
		t.Fatal("containment across tokens")
	}
	s := c.Stats()
	if s.ContainedHits != 2 {
		t.Fatalf("contained hits %d, want 2", s.ContainedHits)
	}
}

func TestExactOnlyEntriesSkipContainment(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	// A row-order range is a scan-path result: exact reuse only.
	c.InsertRangeRows(rangeKey("t", "a", 10, 20), tok, seq(0, 5), 10, Plan{})
	if _, _, ok, _ := c.Lookup(rangeKey("t", "a", 10, 20), at(tok)); !ok {
		t.Fatal("exact lookup must still hit")
	}
	if _, kind, _, _ := c.LookupRange(rangeKey("t", "a", 12, 14), at(tok)); kind != HitMiss {
		t.Fatal("containment over an exact-only entry")
	}
}

// TestAdmissionCostFloor: recurrence and the cost floor are both required.  A
// question at its first sight is deferred however much it cost; at its second
// it reaches admission, where a result cheaper than the floor is rejected.
func TestAdmissionCostFloor(t *testing.T) {
	c := New(Options{MinCostNs: 100})
	tok := Token{Gen: 1}
	// ask is one miss as the executor plays it: look up, and stage and insert
	// only on the verdict.
	ask := func(k Key, cost int64) (hit, admit bool) {
		_, _, hit, admit = c.Lookup(k, at(tok))
		if admit {
			c.Insert(k, tok, seq(0, 4), cost)
		}
		return hit, admit
	}
	cheap, dear := rangeKey("t", "a", 0, 1), rangeKey("t", "a", 2, 3)
	for _, k := range []Key{cheap, dear} {
		if hit, admit := ask(k, 1<<30); hit || admit {
			t.Fatalf("%+v at first sight: hit=%v admit=%v", k, hit, admit)
		}
	}
	if s := c.Stats(); s.Deferred != 2 || s.Inserts != 0 || s.Rejects != 0 || s.Entries != 0 {
		t.Fatalf("after two first sights: %+v", s)
	}
	if hit, admit := ask(cheap, 99); hit || !admit { // below the floor
		t.Fatalf("cheap question at second sight: hit=%v admit=%v", hit, admit)
	}
	if hit, admit := ask(dear, 100); hit || !admit {
		t.Fatalf("dear question at second sight: hit=%v admit=%v", hit, admit)
	}
	if hit, _ := ask(cheap, 99); hit {
		t.Fatal("sub-floor result admitted")
	}
	if hit, _ := ask(dear, 100); !hit {
		t.Fatal("at-floor result of a recurring question rejected")
	}
	if s := c.Stats(); s.Deferred != 2 || s.Inserts != 1 || s.Rejects != 2 || s.Misses != 5 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEvictionUnderBudget(t *testing.T) {
	// One stripe so the budget applies to every insert.
	c := New(admitAll(Options{MaxBytes: 64 << 10, stripes: 1}))
	tok := Token{Gen: 1}
	for i := 0; i < 100; i++ {
		// ~4KiB each: the stripe holds well under 16.
		c.Insert(Key{Table: "t", Col: "a", Kind: KindIn, Hash: uint64(i)}, tok, seq(0, 1000), 10)
	}
	s := c.Stats()
	if s.Bytes > 64<<10 {
		t.Fatalf("bytes %d exceed budget", s.Bytes)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if s.Entries == 0 {
		t.Fatal("cache emptied itself")
	}
}

func TestOversizedResultRejected(t *testing.T) {
	c := New(admitAll(Options{MaxBytes: 16 << 10, stripes: 1}))
	c.Insert(rangeKey("t", "a", 0, 1), Token{Gen: 1}, seq(0, 10000), 10) // 40KB > budget/2
	if s := c.Stats(); s.Entries != 0 || s.Rejects != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestScanResistance(t *testing.T) {
	c := New(admitAll(Options{MaxBytes: 32 << 10, stripes: 1}))
	tok := Token{Gen: 1}
	hot := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 0xbeef}
	c.Insert(hot, tok, seq(0, 500), 10)
	for i := 0; i < 4; i++ { // warm it well past one CLOCK life
		c.Lookup(hot, at(tok))
	}
	// A scan of one-shot queries big enough to churn the stripe twice.
	for i := 0; i < 40; i++ {
		c.Insert(Key{Table: "t", Col: "a", Kind: KindIn, Hash: uint64(i)}, tok, seq(0, 500), 10)
	}
	if _, _, ok, _ := c.Lookup(hot, at(tok)); !ok {
		t.Fatal("hot entry flushed by one cold scan")
	}
}

func TestDropTable(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	c.Insert(rangeKey("t1", "a", 0, 1), tok, seq(0, 4), 10)
	c.Insert(rangeKey("t2", "a", 0, 1), tok, seq(0, 4), 10)
	c.DropTable("t1")
	if _, _, ok, _ := c.Lookup(rangeKey("t1", "a", 0, 1), at(tok)); ok {
		t.Fatal("dropped table served")
	}
	if _, _, ok, _ := c.Lookup(rangeKey("t2", "a", 0, 1), at(tok)); !ok {
		t.Fatal("other table dropped")
	}
	if s := c.Stats(); s.Invalidations != 1 {
		t.Fatalf("invalidations %d, want 1", s.Invalidations)
	}
}

func TestPairRoundTrip(t *testing.T) {
	c := New(admitAll(Options{}))
	k := Key{Table: "outer", Col: "k", Kind: KindJoin, Hash: 7}
	tok := Token{Gen: 1, Epoch: 3}
	c.InsertPair(k, tok, []uint32{1, 2}, []uint32{10, 20}, 10)
	a, b, ok, _ := c.LookupPair(k, tok)
	if !ok || len(a) != 2 || len(b) != 2 || a[1] != 2 || b[1] != 20 {
		t.Fatalf("pair round-trip: ok=%v a=%v b=%v", ok, a, b)
	}
	if _, _, ok, _ := c.LookupPair(k, Token{Gen: 1, Epoch: 4}); ok {
		t.Fatal("stale epoch pair served")
	}
}

// TestNilAndDisabled checks the nil cache, the one "off" state (what an
// mmdb table with no cache attached holds), answers every call as a miss.
func TestNilAndDisabled(t *testing.T) {
	var nilCache *Cache
	nilCache.Insert(rangeKey("t", "a", 0, 1), Token{}, seq(0, 4), 10)
	if _, _, ok, _ := nilCache.Lookup(rangeKey("t", "a", 0, 1), at(Token{})); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.DropTable("t")
	if s := nilCache.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats %+v", s)
	}
}

// TestConcurrentChurn drives lookups, inserts, containment slices and
// drops from many goroutines; run under -race this is the cache's own
// data-race gate (the mmdb stress test covers the end-to-end story).
func TestConcurrentChurn(t *testing.T) {
	c := New(admitAll(Options{MaxBytes: 1 << 20, stripes: 4}))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tok := Token{Gen: uint64(i / 100)}
				lo := uint32(i % 50)
				k := rangeKey("t", "a", lo, lo+10)
				switch (i + w) % 4 {
				case 0:
					c.InsertRange(k, tok, seq(lo, 10), seq(lo*10, 10), 10, Plan{})
				case 1:
					c.Lookup(k, at(tok))
				case 2:
					c.LookupRange(rangeKey("t", "a", lo+2, lo+5), at(tok))
				default:
					if i%500 == 0 {
						c.DropTable("t")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries < 0 || s.Bytes < 0 {
		t.Fatalf("accounting went negative: %+v", s)
	}
}
