package qcache

// Intermediate reuse: answering a query from cached results that only
// partially overlap it.  The cache side is pure mechanism — StitchRange,
// LookupInReuse and LookupAgg report what is reusable (cached segments and
// uncovered gaps, cached value groups and missing values, whole aggregate
// slices) and the execution engine decides whether filling the holes beats
// recomputing (its cost model knows probe and gather prices; the cache
// does not).  When the caller commits to a partial answer it settles the
// accounting with NoteStitch/NoteInFill, trading the exact-lookup miss it
// already counted for a hit of the right kind.
//
// All returned slices alias immutable cache memory (entries are never
// edited after insert — a refresh replaces them), so they are safe to read
// without the stripe lock but must be copied before mutation.

// RangeSegment is one cached piece of a stitch plan: the (value, RID)
// pairs covering the closed value interval [Lo, Hi], sliced from an
// immutable cached run.
type RangeSegment struct {
	Lo, Hi uint32
	Keys   []uint32
	RIDs   []uint32
}

// RangeGap is an uncovered closed value interval the caller must probe.
type RangeGap struct{ Lo, Hi uint32 }

// StitchPlan decomposes a requested range into cached segments and
// uncovered gaps.  Both lists are ascending and disjoint, and together
// they tile the request exactly, so the answer is the in-order
// concatenation of segment pairs and gap probe results.
type StitchPlan struct {
	Segments []RangeSegment
	Gaps     []RangeGap
	// CachedRows is the total pair count across Segments — the copy-cost
	// input to the caller's stitch-vs-recompute break-even.
	CachedRows int
	// TailRows is the tail rows merged bringing the segments' entries
	// current; Current when none of them was missing any.
	TailRows int
}

// StitchRange plans answering the range fingerprint k (Kind KindRange,
// closed bounds k.Lo/k.Hi) from the overlapping cached runs of the same
// column that serve the reader.  It walks the lo-ordered interval map
// greedily, picking at each uncovered point the valid run reaching furthest
// right, then brings each picked run current before slicing it.  ok is false
// when no cached run overlaps the request at all (a plan that is all gap is
// a recompute, not a stitch).  The caller should first try LookupRange: a
// single fully-covering run is the cheaper containment path and never
// reaches here.
func (c *Cache) StitchRange(k Key, rd Reader) (*StitchPlan, bool) {
	if !c.Enabled() || k.Lo > k.Hi {
		return nil, false
	}
	st := c.stripeFor(k)
	ck := k.column()
	st.mu.Lock()
	defer st.mu.Unlock()
	list := st.ranges[ck]
	if len(list) == 0 {
		return nil, false
	}
	plan := &StitchPlan{TailRows: Current}
	var picks []*entry // picks[i] answers plan.Segments[i]
	cur := k.Lo
	i := 0
	for {
		// Among runs starting at or before cur, pick the one reaching
		// furthest right.  Runs passed over here can never cover a later
		// cur (it only grows past their hi), so the scan is one pass.
		var best *entry
		for ; i < len(list) && list[i].lo <= cur; i++ {
			if e := list[i]; e.tok.serves(rd.Tok) && e.hi >= cur && (best == nil || e.hi > best.hi) {
				best = e
			}
		}
		if best == nil {
			// Gap from cur to the next valid run's start (or the end).
			if i >= len(list) || list[i].lo > k.Hi {
				plan.Gaps = append(plan.Gaps, RangeGap{Lo: cur, Hi: k.Hi})
				break
			}
			if !list[i].tok.serves(rd.Tok) {
				i++
				continue
			}
			plan.Gaps = append(plan.Gaps, RangeGap{Lo: cur, Hi: list[i].lo - 1})
			cur = list[i].lo
			continue
		}
		segHi := best.hi
		if segHi > k.Hi {
			segHi = k.Hi
		}
		plan.Segments = append(plan.Segments, RangeSegment{Lo: cur, Hi: segHi})
		picks = append(picks, best)
		if segHi == k.Hi {
			break
		}
		cur = segHi + 1 // segHi < k.Hi, so this cannot wrap
	}
	// Bringing a pick current relinks the interval map the walk above read,
	// so the picks are settled only now.  One that was evicted making room
	// for an earlier pick's successor, or cannot be carried, voids the plan.
	for i, e := range picks {
		if e.dead {
			return nil, false
		}
		e, tail := st.current(e, rd, c)
		if e == nil {
			return nil, false
		}
		if tail != Current {
			plan.TailRows = max(plan.TailRows, 0) + tail
		}
		seg := &plan.Segments[i]
		first, last := e.span(seg.Lo, seg.Hi)
		seg.Keys, seg.RIDs = e.keys[first:last], e.rids[first:last]
		plan.CachedRows += last - first
	}
	return plan, len(picks) > 0
}

// NoteStitch settles the accounting after the caller commits to a stitch
// plan for fingerprint k: the exact-lookup miss already counted becomes a
// stitched hit, and the gap probes it cost are recorded.  The whole trade
// happens under k's stripe lock, so a concurrent StatsSnapshot sees it
// entirely or not at all.
func (c *Cache) NoteStitch(k Key, gaps int) {
	if !c.Enabled() {
		return
	}
	st := c.stripeFor(k)
	st.mu.Lock()
	st.stats.Misses--
	st.stats.Hits++
	st.stats.StitchedHits++
	st.stats.GapProbes += int64(gaps)
	st.mu.Unlock()
}

// InReuse describes how an IN-list can be assembled from the best cached
// grouped entry: Groups[i] holds the cached rows of the i-th query value
// (in the query's first-occurrence order; empty but non-nil when the
// entry knows the value matches no rows), and a nil Groups[i] means the
// value is absent from the cached list and must be probed — those values
// repeat in Missing, in query order.
type InReuse struct {
	Groups  [][]uint32
	Missing []uint32
	// TailRows is the tail rows merged bringing the source entry current;
	// Current when it was missing none.
	TailRows int
}

// emptyGroup distinguishes "cached as empty" from "unknown, probe it".
var emptyGroup = []uint32{}

// LookupInReuse answers an IN fingerprint from the grouped IN entries of
// the same column that serve the reader.  distinct must be the deduplicated query
// values in first-occurrence order (the order the result concatenates
// groups in).  A full subset match is complete — no probes needed — and is
// counted as a subset hit here; a partial match returns the covered groups
// plus the missing values and counts nothing until the caller commits with
// NoteInFill.  The entry covering the most query values wins.
//
// Candidates come from the column's inverted index (inindex.go): one
// posting lookup per query value, so the common ad-hoc miss — no resident
// entry lists any of the values — costs len(distinct) map probes, not a
// visit to every resident entry.
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
	best, covered := ix.best(rd.Tok, distinct)
	if best == nil {
		return nil, false
	}
	best, tail := st.current(best, rd, c)
	if best == nil {
		return nil, false
	}
	r := &InReuse{Groups: make([][]uint32, len(distinct)), TailRows: tail}
	if covered < len(distinct) {
		r.Missing = make([]uint32, 0, len(distinct)-covered)
	}
	for i, v := range distinct {
		if p, ok := findSorted(best.vals, v); ok {
			g := best.s2g[p]
			grp := best.rids[best.goff[g]:best.goff[g+1]]
			if grp == nil {
				grp = emptyGroup
			}
			r.Groups[i] = grp
		} else {
			r.Missing = append(r.Missing, v)
		}
	}
	if len(r.Missing) == 0 {
		// A complete replay: settle the exact-lookup miss now, still under
		// the stripe lock held since entry.
		st.stats.Misses--
		st.stats.Hits++
		st.stats.SubsetHits++
	}
	return r, true
}

// NoteInFill settles the accounting after the caller commits to a
// superset fill for fingerprint k: the exact-lookup miss becomes a
// superset hit, and the missing-key probes it cost are recorded — all
// under k's stripe lock so the trade is never half-visible.
func (c *Cache) NoteInFill(k Key, missing int) {
	if !c.Enabled() {
		return
	}
	st := c.stripeFor(k)
	st.mu.Lock()
	st.stats.Misses--
	st.stats.Hits++
	st.stats.SupersetHits++
	st.stats.MissingKeyProbes += int64(missing)
	st.mu.Unlock()
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
