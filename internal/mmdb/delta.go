package mmdb

// The mutable delta layer behind AppendRows.  The paper's OLAP position —
// rebuild indexes from scratch after a batch of updates (§2.3) — prices a
// batch at O(n log n) no matter how small it is, so a stream of small
// appends pays the whole table over and over: the append cliff.  The fix
// mirrors an LSM tree collapsed to one level: a small batch is *absorbed*
// as a sorted (value, RID) run per index, with min/max fences and a bloom
// filter so probes skip runs that cannot match, and every read surface
// serves base ∪ delta merged by (value, RID).  Because appended RIDs all
// exceed resident RIDs and the build's radix sort is stable, that merged
// order is bit-identical to what a full rebuild would produce — the delta
// layer is invisible to results, only to build cost.  It builds only what an
// epoch publishes: a batch sorts through stack buffers into its run, and a
// cascade of the geometric tier merges once into one array with one bloom
// filter (pushRun).  Once the delta has grown to a fixed fraction of the base
// (foldDenominator), the batch *folds*, and the fold is the range read's own
// weave over the whole key space: the runs hold the tail sorted, the batch
// joins them as one more run, and each index weaves its base with them —
// O(n + tail·log) where a rebuild re-sorts every index, and byte-identical to
// one for the same two reasons.  A grouped column's domain grows by the
// tail's new values, which shifts its old IDs monotonically (IDs are ranks),
// so its memoized IDs follow by one remap.
//
// One key space is the crux: the index base arrays, the delta runs and the
// result cache's runs all hold raw values, so a run weaves into the base by
// plain comparison, a fold weaves without translating, and the cache keys
// ranges by raw closed bounds (qcache).

import (
	"cssidx/internal/binsearch"
	"cssidx/internal/bloom"
	"cssidx/internal/sortu32"
)

// The fold trigger: a batch folds once the delta it brings reaches
// 1/foldDenominator of the base, deltaRows*foldDenominator ≥ baseRows.  An
// append onto an empty or tiny base therefore folds at once, which is the
// fold-per-batch small tables want.  A caller that wants a fold sooner calls
// Compact.
const foldDenominator = 8

// foldPolicy is the fold schedule.  The zero value is the engine's; only
// tests set another, to fold every batch, never, or at another size.
type foldPolicy struct {
	always  bool // fold every batch: the pure §2.3 cycle
	denom   int  // 0 means foldDenominator
	minRows int  // the delta rows a fold needs at least
}

// shouldFold reports whether a batch bringing the delta to deltaRows over
// a base of baseRows crosses the fold threshold.
func (p foldPolicy) shouldFold(deltaRows, baseRows int) bool {
	if p.always {
		return true
	}
	denom := p.denom
	if denom <= 0 {
		denom = foldDenominator
	}
	return deltaRows >= p.minRows && deltaRows*denom >= baseRows
}

// BaseRows returns the rows covered by the frozen base — everything up to
// the last fold.
func (t *Table) BaseRows() int { return t.baseRows }

// DeltaRows returns the rows absorbed since the last fold.
func (t *Table) DeltaRows() int { return t.rows - t.baseRows }

// --- delta runs ---------------------------------------------------------------

// idxRun is one sorted delta run: the (value, RID) pairs of absorbed
// append batches ordered by (value, RID), fenced by min/max and guarded by
// a bloom filter over the values so point probes skip runs that cannot
// match.
type idxRun struct {
	vals   []uint32
	rids   []uint32
	min    uint32
	max    uint32
	filter bloom.Filter
}

// sortedPairsOf returns a copy of vals in sorted order with the parallel RID
// list; row i has RID startRID+i.  The stable pair sort keeps equal values in
// ascending-RID order.
func sortedPairsOf(vals []uint32, startRID uint32) (v, r []uint32) {
	v, r = make([]uint32, len(vals)), make([]uint32, len(vals))
	sortPairsInto(v, r, vals, startRID)
	return v, r
}

// sortPairsInto writes vals' pairs, sorted, into v and r.  An append batch —
// up to 1,024 rows — sorts through stack buffers, so absorbing it allocates
// only what it publishes; a larger sort allocates its own.
func sortPairsInto(v, r, vals []uint32, startRID uint32) {
	copy(v, vals)
	for i := range r {
		r[i] = startRID + uint32(i)
	}
	var tmpK, tmpV [1024]uint32
	sortu32.SortPairsScratch(v, r, tmpK[:], tmpV[:])
}

// pushRun returns the tier with the batch vals (row i has RID startRID+i)
// absorbed on the end, tiered geometrically: the batch merges with the runs
// before it while the one before holds fewer than twice the pairs merged so
// far.  Sizes therefore at least halve along the slice, so an index holds at
// most ⌊log2(deltaRows/batch)⌋+1 runs, every pair is merged O(log) times over
// the delta's life, and an absorb never touches the large old runs it does
// not outgrow — reads probe the runs as they are and never merge them.
//
// The cascade merges in one pass: one output array at its final size, the
// batch sorted into its end, each older run merged into its tail, newest
// first, winning ties (its RIDs are smaller).  Writes trail the tail's reads
// by the older run's unmerged pairs, so no scratch is needed; only the run
// published gets a bloom filter.  Published epochs keep their slices.
func pushRun(runs []idxRun, vals []uint32, startRID uint32) []idxRun {
	k, n := len(runs), len(vals)
	for k > 0 && len(runs[k-1].vals) < 2*n {
		k--
		n += len(runs[k].vals)
	}
	v, r := make([]uint32, n), make([]uint32, n)
	t := n - len(vals) // the merged tail's start
	sortPairsInto(v[t:], r[t:], vals, startRID)
	for i := len(runs) - 1; i >= k; i-- {
		a, tail := &runs[i], t
		t -= len(a.vals)
		o, j := t, 0
		for ; j < len(a.vals) && tail < n; o++ {
			if a.vals[j] <= v[tail] {
				v[o], r[o] = a.vals[j], a.rids[j]
				j++
			} else {
				v[o], r[o] = v[tail], r[tail]
				tail++
			}
		}
		copy(v[o:], a.vals[j:])
		copy(r[o:], a.rids[j:])
	}
	out := append(make([]idxRun, 0, k+1), runs[:k]...)
	return append(out, idxRun{vals: v, rids: r, min: v[0], max: v[n-1], filter: bloom.Build(v)})
}

// equalRange returns the half-open positions of value v, empty when the
// fences or the bloom filter rule it out without searching.
func (r *idxRun) equalRange(v uint32) (int, int) {
	if v < r.min || v > r.max || !r.filter.May(v) {
		return 0, 0
	}
	return binsearch.EqualRange(r.vals, v)
}

func (r *idxRun) spaceBytes() int {
	return 4*len(r.vals) + 4*len(r.rids) + r.filter.Bytes()
}

// deltaEqualAppend appends the delta RIDs equal to v across runs, in run
// order — ascending RID, matching the base-then-delta merged order.
func deltaEqualAppend(runs []idxRun, v uint32, out []uint32) []uint32 {
	for i := range runs {
		f, l := runs[i].equalRange(v)
		if f < l {
			out = append(out, runs[i].rids[f:l]...)
		}
	}
	return out
}

// deltaRunsBytes sums the runs' footprint.
func deltaRunsBytes(runs []idxRun) int {
	n := 0
	for i := range runs {
		n += runs[i].spaceBytes()
	}
	return n
}

// --- merged reads -------------------------------------------------------------

// mergeRangeDelta weaves the base segment keys[first:last) (sorted values
// with parallel RIDs) and every run's lo ≤ value ≤ hi span into one
// (value, RID)-ordered RID list — exactly the output a fully rebuilt index
// would produce, because every delta RID exceeds every base RID and the
// rebuild's radix sort is stable.  When wantKeys is set the merged values
// ride along for the cache's containment runs.  An empty result is nil.
//
// The weave is asymmetric by design: the delta is tiny next to the base.
// Each run is clipped to [lo, hi] by two binary searches; the clipped
// spans' heads are then drained smallest-first (the earlier run wins ties —
// RID order, since a later run's RIDs all exceed an earlier run's), and
// each delta element finds its split point in the base segment by
// scanning, then galloping, from the previous split (splitPast), so the
// searches cost O(log gap) rather than O(log segment).  Base RIDs move in
// bulk copies and the common no-delta-overlap case degenerates to one copy.
// There is no memoised merged image to rebuild after an absorb: a read costs
// O(result + delta in range) whatever the table size.
func mergeRangeDelta(keys, rids []uint32, first, last int, runs []idxRun, lo, hi uint32, wantKeys bool) (outRids, outVals []uint32) {
	type span struct{ vals, rids []uint32 }
	var buf [8]span // the geometric tier rarely holds more; append spills to the heap if it does
	spans := buf[:0]
	total := last - first
	for ri := range runs {
		r := &runs[ri]
		if r.min > hi || r.max < lo {
			continue
		}
		if f, l := binsearch.LowerBound(r.vals, lo), binsearch.UpperBound(r.vals, hi); f < l {
			spans = append(spans, span{r.vals[f:l], r.rids[f:l]})
			total += l - f
		}
	}
	if total == 0 {
		return nil, nil
	}
	outRids = make([]uint32, total)
	if wantKeys {
		outVals = make([]uint32, total)
	}
	// moveBase copies base positions [from, to) to output position n.
	moveBase := func(n, from, to int) int {
		copy(outRids[n:], rids[from:to])
		if wantKeys {
			copy(outVals[n:], keys[from:to])
		}
		return n + to - from
	}
	n, bi := 0, first
	for {
		best := -1
		for i := range spans {
			if len(spans[i].vals) > 0 && (best < 0 || spans[i].vals[0] < spans[best].vals[0]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		sp := &spans[best]
		v := sp.vals[0]
		// Base elements with value ≤ v precede the delta element (base RIDs
		// are smaller, so ties resolve base-first); move them in one copy.
		if s := splitPast(keys, bi, last, v); s > bi {
			n = moveBase(n, bi, s)
			bi = s
		}
		// Every pair of this span equal to v follows at once: the split is
		// the same, and the later spans' equal values carry larger RIDs.
		j := 1
		for j < len(sp.vals) && sp.vals[j] == v {
			j++
		}
		copy(outRids[n:], sp.rids[:j])
		if wantKeys {
			copy(outVals[n:], sp.vals[:j])
		}
		n += j
		sp.vals, sp.rids = sp.vals[j:], sp.rids[j:]
	}
	moveBase(n, bi, last)
	return outRids, outVals
}

// Pairs and Equal are the segment as a qcache.RunTail: what a cached result
// computed over rows [0, mark) is missing.  Runs hold disjoint ascending RID
// intervals in slice order, starting where the base ends, so the runs wholly
// below mark are skipped by arithmetic and at most one straddles it.
//
// Pairs returns the delta pairs with lo ≤ value ≤ hi and RID ≥ mark in
// (value, RID) order: the runs from the straddling one on weave clipped to the
// bounds, and the straddling run's pairs below mark are dropped from the
// result — O(log delta + pairs in range), never a scan of the appended rows.
func (s *segment) Pairs(lo, hi, mark uint32) (vals, rids []uint32) {
	start, i := uint32(len(s.rids)), 0
	for ; i < len(s.runs) && start+uint32(len(s.runs[i].rids)) <= mark; i++ {
		start += uint32(len(s.runs[i].rids))
	}
	rids, vals = mergeRangeDelta(nil, nil, 0, 0, s.runs[i:], lo, hi, true)
	if start < mark {
		n := 0
		for j, r := range rids {
			if r >= mark {
				vals[n], rids[n] = vals[j], r
				n++
			}
		}
		vals, rids = vals[:n], rids[:n]
	}
	return vals, rids
}

// Equal appends the delta RIDs ≥ mark of the rows equal to v, ascending.
func (s *segment) Equal(v, mark uint32, out []uint32) []uint32 {
	start := uint32(len(s.rids))
	for i := range s.runs {
		r := &s.runs[i]
		if end := start + uint32(len(r.rids)); end > mark {
			f, l := r.equalRange(v)
			for start < mark && f < l && r.rids[f] < mark {
				f++
			}
			out = append(out, r.rids[f:l]...)
		}
		start += uint32(len(r.rids))
	}
	return out
}

// splitPast returns the first position in keys[from:to) whose value exceeds
// v (to when none does).  Successive delta elements land close
// together in the base, so the search starts at the previous split: a short
// linear scan (predictable, and the common case — near the 1/8 fold trigger
// a delta element arrives every dozen base rows or sooner; it measures a
// quarter faster there than galloping from step one), then doubling steps
// that bracket a distant split for a binary search to close, at a cost that
// follows the distance moved, not the segment.
func splitPast(keys []uint32, from, to int, v uint32) int {
	const scan = 16
	for lim := min(from+scan, to); from < lim; from++ {
		if keys[from] > v {
			return from
		}
	}
	s, step := from, scan
	for s < to && keys[s] <= v {
		from = s + 1
		s += step
		step <<= 1
	}
	if s < to {
		to = s
	}
	for from < to {
		m := int(uint(from+to) >> 1)
		if keys[m] > v {
			to = m
		} else {
			from = m + 1
		}
	}
	return from
}
