package mmdb

// The segment is the §2.2 query engine in one place: a RID list sorted by a
// column's values, probed through a search structure, plus the sorted
// delta runs absorbed since the last fold (Asadi & Lin's split — one
// immutable compact base, small sorted runs, one read path over both).  Every
// published epoch of a SortedIndex is one, and the table layer, the index's
// own methods and a join all read one, so every read primitive below exists
// once: the range weave, the range count, the point probe, the join's chunk
// probe and the chunked IN driver.  The cached query paths (query.go) are
// written against a segment and a cache reader and never ask which search
// structure is underneath; only EXPLAIN does.

import (
	"math"
	"sync"

	"cssidx"
	"cssidx/internal/governor"
	"cssidx/internal/parallel"
	"cssidx/internal/qcache"
	"cssidx/internal/shard"
	"cssidx/internal/telemetry"
)

// orderedProbe is what a segment asks of a search structure with ordered
// access over the sorted value array — raw values in, base positions out:
// cssidx.BatchOrderedIndex for the single-structure methods, a frozen
// *shard.View for a sharded index.
type orderedProbe interface {
	LowerBound(v uint32) int
	LowerBoundBatch(vals []uint32, out []int32)
	EqualRange(v uint32) (first, last int)
	EqualRangeBatch(vals []uint32, first, last []int32)
}

// segment is one frozen read view of an index.  Nothing reachable from it is
// written after it is published.
type segment struct {
	keys []uint32 // the base rows' values in sorted order
	rids []uint32 // RIDs ordered by column value
	runs []idxRun // absorbed delta runs since the last fold, geometrically tiered (delta.go)

	ord    orderedProbe      // nil when the method has no ordered access (hashing, §3.5)
	eq     cssidx.BatchIndex // equality probes when ord is nil
	bytes  int               // the search structure's footprint
	shards *shard.View       // a sharded structure (also ord), for EXPLAIN; nil otherwise

	// Identity for the result cache: entries are fingerprinted by table and
	// column (and by the layer of the surface asking), and looked up in the
	// owning table's cache.
	tbl *Table
	col string
}

// equalRange returns the half-open base positions holding value v.
func (s *segment) equalRange(v uint32) (first, last int) {
	if s.ord != nil {
		return s.ord.EqualRange(v)
	}
	first = s.eq.Search(v)
	if first < 0 {
		return 0, 0
	}
	for last = first + 1; last < len(s.keys) && s.keys[last] == v; last++ {
	}
	return first, last
}

// equalRangeBatch answers the equal range of every value probe: batched
// through the ordered surface when the method has one, or — for hash —
// batched leftmost-hit searches extended across each hit's duplicate run in
// the sorted key array (§3.6).  An absent probe of the hash form comes back
// with a negative first.
func (s *segment) equalRangeBatch(vals []uint32, first, last []int32) {
	if s.ord != nil {
		s.ord.EqualRangeBatch(vals, first, last)
		return
	}
	s.eq.SearchBatch(vals, first)
	n := int32(len(s.keys))
	for j, f := range first {
		e := f
		if f >= 0 {
			e++
			for e < n && s.keys[e] == vals[j] {
				e++
			}
		}
		last[j] = e
	}
}

// selectEqual returns the RIDs of rows equal to value: base rows, then the
// delta runs' — ascending RID, since appended RIDs exceed all resident ones.
func (s *segment) selectEqual(value uint32) []uint32 {
	var out []uint32
	if first, last := s.equalRange(value); first < last {
		out = append(out, s.rids[first:last]...)
	}
	return deltaEqualAppend(s.runs, value, out)
}

// bounds returns the base positions [first, last) of the values in the
// closed range [lo, hi], lo ≤ hi, through the ordered surface: two lower
// bounds, the upper one probed at hi+1 — or, for hi = MaxUint32, where hi+1
// would wrap, the end of the keys.  The planner prices a range by this span
// and the range path reads it, so each bound is one descent.
func (s *segment) bounds(lo, hi uint32) (first, last int) {
	first, last = s.ord.LowerBound(lo), len(s.keys)
	if hi != math.MaxUint32 {
		last = s.ord.LowerBound(hi + 1)
	}
	return first, last
}

// rangeMerged is the one range path: the base span [first, last) of
// [lo, hi] (bounds), woven with the delta runs' clipped spans at read time
// (mergeRangeDelta) — O(result + delta-in-range), whatever the table size
// and however recent the last absorb.  wantKeys additionally returns the
// merged values: the cache's containment runs want them, a bare SelectRange
// does not pay for them.
func (s *segment) rangeMerged(lo, hi uint32, first, last int, wantKeys bool) (rids, keys []uint32) {
	return mergeRangeDelta(s.keys, s.rids, first, last, s.runs, lo, hi, wantKeys)
}

// spaceBytes is the footprint of the arrays a segment serves from.
func (s *segment) spaceBytes() int {
	return 4*len(s.rids) + 4*len(s.keys) + deltaRunsBytes(s.runs)
}

// --- batched probing ----------------------------------------------------------

// probeScratch holds the reusable buffers of one batched probe stream; drawn
// from scratchPool per worker and grown to the chunk size, so concurrent
// spans reuse buffers without sharing them.
type probeScratch struct {
	first []int32
	last  []int32
}

// scratchPool recycles probeScratch across batched operations and workers.
var scratchPool = sync.Pool{New: func() any { return &probeScratch{} }}

// newProbeScratch draws a scratch sized for chunks of up to n values.
func newProbeScratch(n int) *probeScratch {
	sc := scratchPool.Get().(*probeScratch)
	if cap(sc.first) < n {
		sc.first = make([]int32, n)
		sc.last = make([]int32, n)
	}
	return sc
}

// equalRanges resolves one chunk of raw values (at most the scratch's size)
// with one batched equal-range probe: first[i]/last[i] are the base
// positions holding value i, empty (or, for hash, a negative first) when no
// base row does.  Values absent from the base may still live in the runs.
func (s *segment) equalRanges(values []uint32, sc *probeScratch) (first, last []int32) {
	first, last = sc.first[:len(values)], sc.last[:len(values)]
	s.equalRangeBatch(values, first, last)
	return first, last
}

// probeEqual answers the join chunk of outer rows from base whose equal
// ranges equalRanges resolved into sc: emit, unless nil, runs per match with
// the outer and inner RIDs, in outer order then ascending inner RID (base
// rows first); it returns the matches.  Safe with distinct scratches.
func (s *segment) probeEqual(values []uint32, base uint32, sc *probeScratch, emit func(outerRID, innerRID uint32)) int {
	count := 0
	for i, v := range values {
		if f, l := sc.first[i], sc.last[i]; f >= 0 {
			count += int(l - f)
			if emit != nil {
				for _, rid := range s.rids[f:l] {
					emit(base+uint32(i), rid)
				}
			}
		}
		for ri := range s.runs {
			f, l := s.runs[ri].equalRange(v)
			count += l - f
			if emit != nil {
				for _, rid := range s.runs[ri].rids[f:l] {
					emit(base+uint32(i), rid)
				}
			}
		}
	}
	return count
}

// selectIn is the one IN-list driver.  The pre-deduplicated values are
// probed in chunks of cssidx.DefaultBatchSize (equalRanges), each value
// contributing its base rows then its run rows — value-grouped in list
// order, ascending RID within a value, exactly what a rebuilt index would
// return.  With wantGroups, goff[i] marks where value i's rows start in out
// (len(distinct)+1 entries): the shape the cache's subset replay and
// per-group append patching need.
//
// A list large enough for the worker options, on a segment with no runs and
// no offsets wanted, is split into contiguous spans probed concurrently —
// every probe primitive is safe for that — and the spans' rows concatenate
// in span order, so the output is identical at every worker count.  A
// governed call observes cancellation and charges the byte budget once per
// chunk, each worker through its own Checkpoint.
func (s *segment) selectIn(ctl *governor.Ctl, distinct []uint32, wantGroups bool, par parallel.Options) (out, goff []uint32, err error) {
	w := 1
	if !wantGroups && len(s.runs) == 0 {
		w = par.WorkersFor(len(distinct))
	}
	if w <= 1 {
		return s.selectInSpan(distinct, wantGroups, ctl.Checkpoint())
	}
	outs := make([][]uint32, w)
	err = fanOut(ctl, w, len(distinct), par, func(t int) (err error) {
		lo, hi := parallel.Span(len(distinct), w, t)
		outs[t], _, err = s.selectInSpan(distinct[lo:hi], false, ctl.Checkpoint())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out = make([]uint32, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil, nil
}

// fanOut runs body(t) for every span t in [0, w) on the worker pool — bound
// to ctl's context when governed, so the undrawn spans of a cancelled query
// never start — and returns the first error.  n is the combined work size.
func fanOut(ctl *governor.Ctl, w, n int, par parallel.Options, body func(t int) error) error {
	errs := make([]error, w)
	run := func(t int) { errs[t] = body(t) }
	var err error
	if ctl == nil {
		parallel.Do(w, n, par, run)
	} else {
		err = parallel.DoCtx(ctl.Context(), w, n, par, run)
	}
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	return err
}

// selectInSpan is selectIn's single-goroutine body over one span of the list.
func (s *segment) selectInSpan(values []uint32, wantGroups bool, cp *governor.Checkpoint) (out, goff []uint32, err error) {
	if wantGroups {
		goff = make([]uint32, 0, len(values)+1)
	}
	sc := newProbeScratch(min(len(values), cssidx.DefaultBatchSize))
	defer scratchPool.Put(sc)
	for base := 0; base < len(values); base += cssidx.DefaultBatchSize {
		chunk := values[base:min(base+cssidx.DefaultBatchSize, len(values))]
		first, last := s.equalRanges(chunk, sc)
		before := len(out)
		for i, v := range chunk {
			if wantGroups {
				goff = append(goff, uint32(len(out)))
			}
			if f, l := first[i], last[i]; 0 <= f && f < l {
				out = append(out, s.rids[f:l]...)
			}
			out = deltaEqualAppend(s.runs, v, out)
		}
		cp.Charge(4 * int64(len(out)-before))
		if err := cp.TickN(len(chunk)); err != nil {
			return nil, nil, err
		}
	}
	if wantGroups {
		goff = append(goff, uint32(len(out)))
	}
	return out, goff, cp.Flush()
}

// --- identity and EXPLAIN -----------------------------------------------------

// innerTag fingerprints the segment as a join's inner side: table and
// column.  The version it pairs with is the epoch's uid (joinWith).
func (s *segment) innerTag() uint64 {
	return qcache.HashString(qcache.HashString(qcache.HashSeed, s.tbl.name), s.col)
}

// explainRange annotates the span of a computed range over the base
// positions [first, last) — a range's execute span, or a WHERE conjunct's;
// batched, the conjunct was read off its index's one bound batch (it had no
// delta runs to weave).
func (s *segment) explainRange(sp *telemetry.Span, first, last, rows int, batched bool) {
	switch {
	case sp == nil: // attr args must not run on the untraced path
		return
	case s.shards != nil:
		sp.Attr("path", "sharded").AttrInt("shards_touched", shardsTouched(s.shards.Bounds(), s.keys[first:last])).
			AttrInt("delta_runs", len(s.runs))
	case batched:
		sp.Attr("path", "sorted-index-batched")
	default:
		sp.Attr("path", "sorted-index").AttrInt("delta_runs", len(s.runs))
	}
	sp.AttrInt("rows", rows)
}

// explainIn names the IN driver's shape on the execute span before it runs,
// so an aborted probe still says what it was.
func (s *segment) explainIn(ex *telemetry.Span, values int, grouped bool) {
	switch {
	case ex == nil:
	case grouped && s.shards == nil:
		ex.Attr("path", "index-grouped").AttrInt("workers", 1)
	case grouped:
		ex.Attr("path", "sharded-grouped").AttrInt("workers", 1)
	case s.shards == nil:
		ex.Attr("path", "index-batch").AttrInt("workers", (parallel.Options{}).WorkersFor(values))
	case len(s.runs) == 0:
		ex.Attr("path", "sharded-batch").AttrInt("workers", (parallel.Options{}).WorkersFor(values))
	default:
		ex.Attr("path", "sharded-delta-merged").AttrInt("delta_runs", len(s.runs))
	}
}
