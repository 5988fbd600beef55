package qcache

import "testing"

// The lookups this directory's tests ask in one call: Find, with the miss
// settled (Miss) as a surface about to compute would.

// Lookup returns a copy of the RIDs cached under exactly this fingerprint,
// brought current for the reader, and the tail rows that merged.
func (c *Cache) Lookup(k Key, rd Reader) (rids []uint32, tail int, ok, admit bool) {
	rids, _, tail, ok, admit = c.get(k, rd)
	return append([]uint32(nil), rids...), tail, ok, admit
}

// LookupRange answers a range fingerprint by exact match or containment,
// with a copy of the RIDs (Find shares the payload).
func (c *Cache) LookupRange(k Key, rd Reader) (rids []uint32, kind HitKind, tail int, admit bool) {
	return c.settle(k, c.Find(k, rd, nil))
}

// LookupIn answers an IN fingerprint by exact match or, given distinct,
// subset replay.
func (c *Cache) LookupIn(k Key, rd Reader, distinct []uint32) (rids []uint32, kind HitKind, tail int, admit bool) {
	return c.settle(k, c.Find(k, rd, distinct))
}

// Insert caches a bare RID result: exact reuse only.
func (c *Cache) Insert(k Key, tok Token, rids []uint32, costNs int64) {
	c.insert(&entry{key: k, tok: tok, rids: rids, cost: costNs}, false)
}

func (c *Cache) settle(k Key, a Answer) ([]uint32, HitKind, int, bool) {
	if a.Kind == HitMiss {
		return nil, HitMiss, a.Tail, c.Miss(k)
	}
	return append([]uint32(nil), a.RIDs...), a.Kind, a.Tail, false
}

// Resident is one resident entry as the invariant checkers in this
// directory's external tests see it; its slices alias cache memory.
type Resident struct {
	Key        Key
	Tok        Token
	Ordered    bool // a range in key order, Keys its value run
	Keys, RIDs []uint32
	Vals, Goff []uint32 // an IN entry's sorted values; group offsets when grouped
	S2G        []uint32
	Aggs       []AggRow
	AggMeasure string
	AggAll     bool
}

// CheckStructure verifies the cache's structural invariants — checkInIndex's
// (residency accounting against payloadBytes, the IN index against the entry
// map) plus the interval maps: every list (lo, hi)-ordered, holding exactly
// the live keyed range entries of its column — and returns every resident
// entry.
func CheckStructure(t *testing.T, c *Cache) []Resident {
	t.Helper()
	checkInIndex(t, c)
	var out []Resident
	for si := range c.stripes {
		st := &c.stripes[si]
		st.mu.Lock()
		keyed := 0
		for k, e := range st.m {
			out = append(out, Resident{Key: k, Tok: e.tok, Ordered: e.ordered, Keys: e.keys, RIDs: e.rids, Vals: e.vals,
				Goff: e.goff, S2G: e.s2g, Aggs: e.aggs, AggMeasure: e.aggMeasure, AggAll: e.aggAll})
			if e.ordered {
				keyed++
			}
		}
		for ck, list := range st.ranges {
			keyed -= len(list)
			for i, e := range list {
				if e.dead || !e.ordered || st.m[e.key] != e || e.key.column() != ck || e.lo != e.key.Lo || e.hi != e.key.Hi {
					t.Fatalf("%+v: interval map holds %+v (dead=%v), not a live keyed run of the column", ck, e.key, e.dead)
				}
				if i > 0 && (list[i-1].lo > e.lo || (list[i-1].lo == e.lo && list[i-1].hi >= e.hi)) {
					t.Fatalf("%+v: interval map out of (lo, hi) order at %d: [%d,%d] before [%d,%d]",
						ck, i, list[i-1].lo, list[i-1].hi, e.lo, e.hi)
				}
			}
		}
		if keyed != 0 {
			t.Fatalf("stripe %d: %d live keyed runs missing from the interval maps", si, keyed)
		}
		st.mu.Unlock()
	}
	return out
}
