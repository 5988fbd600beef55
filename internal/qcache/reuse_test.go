package qcache

import (
	"fmt"
	"testing"
)

// ident inserts a range run over the identity table (value v lives at RID v)
// so assembled results are trivially checkable.
func ident(c *Cache, tok Token, lo, hi uint32) {
	c.InsertRange(rangeKey("t", "a", lo, hi), tok, seq(lo, hi-lo+1), seq(lo, hi-lo+1), 10, Plan{})
}

// TestAdmissionSupersedes locks in link's supersede rule: a run covering
// existing same-token runs replaces them in the interval map, so the
// containment walk stays short.
func TestAdmissionSupersedes(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	ident(c, tok, 10, 19)
	ident(c, tok, 30, 39)
	// A run of a different token is out of supersede's reach.
	c.InsertRange(rangeKey("t", "a", 12, 15), Token{Gen: 2}, seq(12, 4), seq(12, 4), 10, Plan{})
	if s := c.Stats(); s.Entries != 3 {
		t.Fatalf("precondition: %d entries", s.Entries)
	}
	ident(c, tok, 5, 45) // covers both same-token runs
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("supersede left %d entries, want 2 (covering + foreign token)", s.Entries)
	}
	// The covering run answers what the dropped fragments did.
	if got, kind, _, _ := c.LookupRange(rangeKey("t", "a", 11, 18), at(tok)); kind == HitMiss || len(got) != 8 {
		t.Fatalf("containment after supersede: kind=%v got=%v", kind, got)
	}
}

func TestLookupInReuseSubsetOnly(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 1, N: 3}
	// Values in first-occurrence order 17, 5, 40; 40 matches no rows.
	c.InsertIn(k, tok, []uint32{17, 5, 40}, []uint32{0, 2, 3, 3}, []uint32{8, 9, 3}, 10, Plan{})

	// Subset replay in a different order: groups concatenate in query order,
	// and the lookup settles one subset hit and no miss.
	qk := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 2, N: 2}
	r, kind, _, admit := c.LookupIn(qk, at(tok), []uint32{5, 17})
	if kind != HitSubset || admit {
		t.Fatalf("subset not covered: %v admit=%v", kind, admit)
	}
	if fmt.Sprint(r) != fmt.Sprint([]uint32{3, 8, 9}) {
		t.Fatalf("subset rows %v", r)
	}
	if s := c.Stats(); s.SubsetHits != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("subset hit not counted: %+v", s)
	}
	// A cached-empty group is covered: the entry knows 40 matches no rows.
	if r, kind, _, _ = c.LookupIn(qk, at(tok), []uint32{40}); kind != HitSubset || len(r) != 0 {
		t.Fatalf("cached-empty group: %v %v", kind, r)
	}

	// A near-superset is a miss like any other, whichever position the
	// unlisted value takes; so is a list asked for its exact match only.
	before := c.Stats()
	for _, q := range [][]uint32{{40, 99}, {99, 40}, {5, 17, 40, 99}, nil} {
		if r, kind, _, admit := c.LookupIn(qk, at(tok), q); kind != HitMiss || !admit {
			t.Fatalf("partial coverage of %v answered: %v %v admit=%v", q, kind, r, admit)
		}
	}
	before.Misses += 4
	if after := c.Stats(); after != before {
		t.Fatalf("four misses moved the counters: %+v, want %+v", after, before)
	}

	// Wrong token: nothing reusable.
	if _, kind, _, _ := c.LookupIn(qk, at(Token{Gen: 9}), []uint32{5}); kind != HitMiss {
		t.Fatal("reuse from a stale-token entry")
	}
	// Ungrouped entries (nil goff) are not reuse candidates.
	c2 := New(admitAll(Options{}))
	c2.InsertIn(k, tok, []uint32{17, 5}, nil, []uint32{8, 9}, 10, Plan{})
	if _, kind, _, _ := c2.LookupIn(qk, at(tok), []uint32{5}); kind != HitMiss {
		t.Fatal("reuse from an ungrouped entry")
	}
}

func TestInsertInRejectsMalformedGroups(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	k := Key{Table: "t", Col: "a", Kind: KindIn, Hash: 3, N: 2}
	c.InsertIn(k, tok, []uint32{5, 17}, []uint32{0, 1}, []uint32{8, 9}, 10, Plan{}) // len(goff) != len(distinct)+1
	if _, _, ok, _ := c.Lookup(k, at(tok)); ok {
		t.Fatal("malformed grouped entry admitted")
	}
	if s := c.Stats(); s.Rejects != 1 {
		t.Fatalf("reject not counted: %+v", s)
	}
	c.InsertIn(k, tok, []uint32{5, 17, 5}, []uint32{0, 1, 2, 3}, []uint32{8, 9, 8}, 10, Plan{}) // 5 listed twice
	if _, _, ok, _ := c.Lookup(k, at(tok)); ok {
		t.Fatal("grouped entry with a repeated value admitted")
	}
	if s := c.Stats(); s.Rejects != 2 || s.Entries != 0 {
		t.Fatalf("repeated-value reject not counted: %+v", s)
	}
}

func TestLookupAggRoundTrip(t *testing.T) {
	c := New(admitAll(Options{}))
	tok := Token{Gen: 1}
	k := Key{Table: "t", Col: "g", Kind: KindAgg, Hash: 7}
	rows := []AggRow{{Value: 3, Count: 2, Sum: 30, Min: 10, Max: 20}, {Value: 9, Count: 1, Sum: 5, Min: 5, Max: 5}}
	c.InsertAgg(k, tok, "m", true, rows, 10)
	got, _, ok, _ := c.LookupAgg(k, at(tok))
	if !ok || fmt.Sprint(got) != fmt.Sprint(rows) {
		t.Fatalf("agg round trip: ok=%v got=%v", ok, got)
	}
	// The hit returns a copy: mutating it must not reach the cache.
	got[0].Count = 999
	again, _, _, _ := c.LookupAgg(k, at(tok))
	if again[0].Count != 2 {
		t.Fatal("cached aggregate mutated through a hit")
	}
	if s := c.Stats(); s.AggregateHits != 2 {
		t.Fatalf("agg hits %d, want 2", s.AggregateHits)
	}
	if _, _, ok, _ := c.LookupAgg(k, at(Token{Gen: 2})); ok {
		t.Fatal("agg hit across tokens")
	}
}
