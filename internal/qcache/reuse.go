package qcache

// Intermediate reuse: answering a query from a cached result that is not
// stored under the query's own fingerprint.  A lookup returns a complete
// answer from one entry, or a miss — nothing here hands back a partial
// answer for the caller to finish with index probes.  Containment (a range
// sliced from one covering run) lives with LookupRange in qcache.go; this
// file holds IN-subset replay and the aggregate lookup.
//
// All returned slices alias immutable cache memory (entries are never
// edited after insert — a refresh replaces them), so they are safe to read
// without the stripe lock but must be copied before mutation.

// InReuse is an IN-list replayed from one cached grouped entry that lists
// every query value: Groups[i] holds the cached rows of the i-th query value
// (in the query's first-occurrence order; empty when the value matches no
// rows).
type InReuse struct {
	Groups [][]uint32
	// TailRows is the tail rows merged bringing the source entry current;
	// Current when it was missing none.
	TailRows int
}

// LookupInReuse answers an IN fingerprint from a grouped IN entry of the
// same column that serves the reader and lists every query value.  distinct
// must be the deduplicated query values in first-occurrence order (the order
// the result concatenates groups in).  The exact-lookup miss the caller
// already counted becomes a subset hit, under the one stripe lock held since
// entry, so a concurrent StatsSnapshot sees the trade entirely or not at all.
//
// Candidates come from the column's inverted index (inindex.go): the common
// ad-hoc miss — no resident entry lists the first query value — costs one
// map probe, not a visit to every resident entry.
func (c *Cache) LookupInReuse(k Key, rd Reader, distinct []uint32) (*InReuse, bool) {
	if !c.Enabled() || len(distinct) == 0 {
		return nil, false
	}
	st := c.stripeFor(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	ix := st.inIdx[k.column()]
	if ix == nil {
		return nil, false
	}
	src := ix.cover(rd.Tok, distinct)
	if src == nil {
		return nil, false
	}
	src, tail := st.current(src, rd, c)
	if src == nil {
		return nil, false
	}
	r := &InReuse{Groups: make([][]uint32, len(distinct)), TailRows: tail}
	for i, v := range distinct {
		p, _ := findSorted(src.vals, v)
		g := src.s2g[p]
		r.Groups[i] = src.rids[src.goff[g]:src.goff[g+1]]
	}
	st.stats.Misses--
	st.stats.Hits++
	st.stats.SubsetHits++
	return r, true
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
func (c *Cache) LookupAgg(k Key, rd Reader) (rows []AggRow, tail int, ok bool) {
	if !c.Enabled() {
		return nil, Current, false
	}
	st := c.stripeFor(k)
	st.mu.Lock()
	e, tail := st.lookupLocked(k, rd, c)
	if e == nil {
		st.stats.Misses++
		st.mu.Unlock()
		return nil, tail, false
	}
	st.stats.Hits++
	st.stats.AggregateHits++
	rows = e.aggs
	st.mu.Unlock()
	return append([]AggRow(nil), rows...), tail, true
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
