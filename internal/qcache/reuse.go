package qcache

// Intermediate reuse: answering a query from a cached result that is not
// stored under the query's own fingerprint.  A lookup returns a complete
// answer from one entry, or a miss — nothing here hands back a partial
// answer for the caller to finish with index probes.  Containment (a range
// sliced from one covering run) lives with LookupRange in qcache.go; this
// file holds the IN lookup with its subset replay and the aggregate lookup.
//
// Payload slices taken under the stripe lock alias immutable cache memory
// (entries are never edited after insert — a refresh replaces them), so they
// are copied out after the lock is released.

import "slices"

// LookupIn answers an IN fingerprint (k.Kind must be KindIn) under one lock
// acquisition: by exact match, else by subset replay — a grouped IN entry of
// the same column that serves the reader and lists every query value yields
// the answer, once brought current, as the concatenation of its groups in the
// query's order — else it is a miss.  distinct must be the deduplicated query
// values in first-occurrence order; nil asks for the exact match only (a
// scan-planned query must not inherit a replay's probe order).  A replay is
// not re-admitted: the source entry answers any repeat of the subset at the
// same price.
//
// Candidates come from the column's inverted index (inindex.go): the common
// ad-hoc miss — no resident entry lists the first query value — costs one
// map probe, not a visit to every resident entry.
func (c *Cache) LookupIn(k Key, rd Reader, distinct []uint32) (rids []uint32, kind HitKind, tail int, admit bool) {
	if !c.Enabled() {
		return nil, HitMiss, Current, false
	}
	var groups [][]uint32
	st := c.stripeFor(k)
	st.mu.Lock()
	e, tail := st.lookupLocked(k, rd, c)
	if e != nil {
		kind, rids = HitExact, e.rids
	} else if ix := st.inIdx[k.column()]; ix != nil && len(distinct) > 0 {
		if src := ix.cover(rd.Tok, distinct); src != nil {
			if src, tail = st.current(src, rd, c); src != nil {
				kind, groups = HitSubset, make([][]uint32, len(distinct))
				for i, v := range distinct {
					p, _ := findSorted(src.vals, v)
					g := src.s2g[p]
					groups[i] = src.rids[src.goff[g]:src.goff[g+1]]
				}
				st.stats.SubsetHits++
			}
		}
	}
	if kind != HitMiss {
		st.stats.Hits++
	} else {
		admit = st.miss(k, c)
	}
	st.mu.Unlock()
	if kind == HitSubset {
		return slices.Concat(groups...), kind, tail, false
	}
	return append([]uint32(nil), rids...), kind, tail, admit
}

// AggRow is one group of a cached grouped-aggregation result: the group's
// raw value and the COUNT/SUM/MIN/MAX of the measure column within it.
// mmdb's GroupRow is an alias of this type so results cache without
// conversion.
type AggRow struct {
	Value uint32
	Count int64
	Sum   uint64
	Min   uint32
	Max   uint32
}

// LookupAgg returns a copy of the grouped-aggregation result cached under
// exactly this fingerprint, brought current for the reader, and the tail
// rows that folded in (Current when none were missing).
func (c *Cache) LookupAgg(k Key, rd Reader) (rows []AggRow, tail int, ok, admit bool) {
	if !c.Enabled() {
		return nil, Current, false, false
	}
	st := c.stripeFor(k)
	st.mu.Lock()
	e, tail := st.lookupLocked(k, rd, c)
	if e == nil {
		admit = st.miss(k, c)
		st.mu.Unlock()
		return nil, tail, false, admit
	}
	st.stats.Hits++
	st.stats.AggregateHits++
	rows = e.aggs
	st.mu.Unlock()
	return append([]AggRow(nil), rows...), tail, true, false
}

// findSorted returns the position of v in the ascending slice a.  The
// halving step is a conditional add, not a branch: a replay resolves every
// query value against the source's list, and with values in query order the
// comparisons are unpredictable.
func findSorted(a []uint32, v uint32) (int, bool) {
	if len(a) == 0 {
		return 0, false
	}
	base := 0
	for n := len(a); n > 1; {
		half := n >> 1
		// base += half when a[base+half] <= v: the difference's sign bit
		// masks the step out otherwise.
		base += half &^ int((int64(v)-int64(a[base+half]))>>63)
		n -= half
	}
	return base, a[base] == v
}
