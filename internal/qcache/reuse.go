package qcache

// Intermediate reuse: answering a query from a cached result that is not
// stored under the query's own fingerprint.  A lookup returns a complete
// answer from one entry, or a miss — nothing here hands back a partial
// answer for the caller to finish with index probes.  Containment (a range
// sliced from one covering run) lives with Find in qcache.go; this file
// holds the IN subset replay and the aggregate lookup.
//
// Payload slices taken under the stripe lock alias immutable cache memory
// (entries are never edited after insert — a refresh replaces them), so they
// are read after the lock is released: a replay concatenates groups into a
// fresh slice, an aggregate hit is copied out.

// subset returns a grouped IN entry of k's column that serves the reader and
// lists every query value, brought current, and the tail rows that took; nil
// when none does.  Its groups, concatenated in the query's order (replay), are
// the answer.  A replay is not re-admitted: the source entry answers any
// repeat of the subset at the same price.  Candidates come from the column's
// inverted index (inindex.go): the common ad-hoc miss — no resident entry
// lists the first query value — costs one map probe, not a visit to every
// resident entry.  Caller holds the stripe lock.
func (st *stripe) subset(k Key, rd Reader, distinct []uint32, c *Cache) (*entry, int) {
	if ix := st.inIdx[k.column()]; ix != nil {
		if src := ix.cover(rd.Tok, distinct); src != nil {
			return st.current(src, rd, c)
		}
	}
	return nil, Current
}

// replay concatenates the groups of a subset source — its sorted values, the
// group of each, the group offsets and the RIDs, all taken under the lock —
// in the query's order, and returns the query's own group offsets.
func replay(distinct, vals, s2g, goff, rids []uint32) (out, qoff []uint32) {
	qoff = make([]uint32, len(distinct)+1)
	n := 0
	for i, v := range distinct {
		p, _ := findSorted(vals, v)
		g := s2g[p]
		qoff[i] = g // the group, until the second pass turns it into an offset
		n += int(goff[g+1] - goff[g])
	}
	if n > 0 {
		out = make([]uint32, 0, n)
	}
	for i, g := range qoff[:len(distinct)] {
		qoff[i] = uint32(len(out))
		out = append(out, rids[goff[g]:goff[g+1]]...)
	}
	qoff[len(distinct)] = uint32(n)
	return out, qoff
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
