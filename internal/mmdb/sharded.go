package mmdb

// Sharded serving for table queries: a ShardedIndex is the concurrent
// counterpart of SortedIndex.  The whole index state — sorted domain-ID
// keys, the RID list, and the cssidx.ShardedIndex over the keys — lives in
// one immutable snapshot behind an atomic pointer, so selections and range
// queries keep serving, lock-free and torn-read-free, while AppendRows
// rebuilds and publishes the next epoch (the §2.3 cycle applied at the
// table level, on top of the per-shard epoch-swaps inside the index).

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"cssidx"
	"cssidx/internal/domain"
	"cssidx/internal/governor"
	"cssidx/internal/parallel"
	"cssidx/internal/qcache"
	"cssidx/internal/sortu32"
	"cssidx/internal/telemetry"
)

// ShardedIndex is a concurrently servable RID list + sharded search index
// on one column.  Build with Table.BuildShardedIndex; queries may run from
// any goroutine, concurrently with AppendRows.
//
// Results are cached per frozen epoch when the owning table has a result
// cache: every entry is stamped with the epoch it was computed under, so a
// query racing an AppendRows rebuild either hits an entry of exactly its
// own epoch or computes against its own frozen snapshot — epochs never
// mix, and a published rebuild invalidates simply by moving the token.
type ShardedIndex struct {
	col     *Column
	tbl     *Table // owning table: result cache + name for fingerprints
	colName string
	shards  int
	cur     atomic.Pointer[shardedEpoch]
}

// shardedEpoch is one published state of the index: a full rebuild (fold),
// or an absorbed append batch sharing the previous epoch's base arrays and
// search structure with one more delta run stacked on top.
type shardedEpoch struct {
	epoch uint64
	uid   uint64            // globally-unique epoch id (cache token)
	dom   *domain.IntDomain // the domain the keys were encoded against
	keys  []uint32          // domain IDs in sorted order
	rids  []uint32          // RIDs ordered by column value
	idx   *cssidx.ShardedIndex[uint32]
	runs  []idxRun // absorbed delta runs since the last fold, geometrically tiered (delta.go)
}

// epochUID issues globally-unique ids for published epochs.  Epoch() counts
// per index instance and restarts at 1 when BuildShardedIndex replaces an
// index, so the *cache* token must come from here: a straggler reader's
// late insert stamped with an old instance's epoch can then never collide
// with a fresh instance's tokens.
var epochUID atomic.Uint64

// BuildShardedIndex builds a sharded index on the column and registers it;
// shards ≤ 0 picks the cssidx default (GOMAXPROCS, capped at 16).
// AppendRows rebuilds the index and publishes the new state atomically.
func (t *Table) BuildShardedIndex(colName string, shards int) (*ShardedIndex, error) {
	col, ok := t.cols[colName]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", colName, t.name)
	}
	ix := &ShardedIndex{col: col, tbl: t, colName: colName, shards: shards}
	ix.rebuild()
	// Rows appended since the last fold are not in the frozen encoding
	// the rebuild indexed; absorb them as a delta run so a late-built
	// index still covers every row.
	if t.rows > t.baseRows {
		ix.absorb(col.raw[t.baseRows:], uint32(t.baseRows))
	}
	if old, ok := t.sharded[colName]; ok {
		old.Close() // release the replaced index's background rebuilder
	}
	t.sharded[colName] = ix
	return ix, nil
}

// ShardedIndex returns the registered sharded index on a column, if any.
func (t *Table) ShardedIndex(colName string) (*ShardedIndex, bool) {
	ix, ok := t.sharded[colName]
	return ix, ok
}

// rebuild constructs the next epoch from the column's current encoding and
// publishes it with a single pointer swap.  The previous epoch's background
// rebuilder is released; readers still holding it keep valid results.
func (ix *ShardedIndex) rebuild() {
	n := len(ix.col.ids)
	keys := make([]uint32, n)
	rids := make([]uint32, n)
	copy(keys, ix.col.ids)
	for i := range rids {
		rids[i] = uint32(i)
	}
	sortu32.SortPairs(keys, rids)
	next := &shardedEpoch{
		epoch: 1,
		uid:   epochUID.Add(1),
		dom:   ix.col.dom,
		keys:  keys,
		rids:  rids,
		idx:   cssidx.NewSharded(keys, cssidx.ShardedOptions[uint32]{Shards: ix.shards}),
	}
	if old := ix.cur.Load(); old != nil {
		next.epoch = old.epoch + 1
		// Absorb epochs share one base idx; the fold closes it exactly once.
		old.idx.Close()
	}
	ix.cur.Store(next)
}

// absorb publishes the next epoch with one more delta run, sharing the
// previous epoch's domain, base arrays and search structure (which is why
// only rebuild — never absorb — closes the underlying index).
func (ix *ShardedIndex) absorb(vals []uint32, startRID uint32) {
	s := ix.cur.Load()
	next := &shardedEpoch{
		epoch: s.epoch + 1,
		uid:   epochUID.Add(1),
		dom:   s.dom,
		keys:  s.keys,
		rids:  s.rids,
		idx:   s.idx,
		runs:  pushRun(s.runs, newIdxRun(vals, startRID)),
	}
	ix.cur.Store(next)
}

// Epoch returns the current table-level epoch (1 = initial build, +1 per
// published AppendRows state — a full rebuild or an absorbed batch).
func (ix *ShardedIndex) Epoch() uint64 { return ix.cur.Load().epoch }

// ShardCount returns the shard count of the current epoch's index.
func (ix *ShardedIndex) ShardCount() int { return ix.cur.Load().idx.ShardCount() }

// SpaceBytes returns the current epoch's footprint: RID list, key array and
// the per-shard arrays (counted as one extra key copy across shards).
func (ix *ShardedIndex) SpaceBytes() int {
	s := ix.cur.Load()
	return 4*len(s.rids) + 4*len(s.keys) + 4*s.idx.Len() + deltaRunsBytes(s.runs)
}

// SelectEqual returns the RIDs of rows whose column equals value — base
// rows first, then delta rows, which is ascending-RID order.
func (ix *ShardedIndex) SelectEqual(value uint32) []uint32 {
	return ix.cur.Load().selectEqual(value)
}

// SelectEqualCtx is SelectEqual under governance: the probe enters the
// owning table's admission controller as ClassPoint — the class with the
// most queue headroom, served last by the shed policy — and the result is
// charged against ctx's byte budget.
func (ix *ShardedIndex) SelectEqualCtx(ctx context.Context, value uint32) ([]uint32, error) {
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	var release = func() {}
	if ix.tbl != nil {
		var err error
		release, err = ix.tbl.admit(ctl, governor.ClassPoint, 0)
		if err != nil {
			governor.NoteAbort(err)
			return nil, err
		}
	}
	defer release()
	out := ix.SelectEqual(value)
	if err := ctl.Charge(4 * int64(len(out))); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	return out, nil
}

// selectEqual answers one equality probe against this frozen epoch.  Reuse
// fills go through here rather than ShardedIndex.SelectEqual so they probe
// the entry's own epoch, not whatever the index pointer has moved on to.
func (s *shardedEpoch) selectEqual(value uint32) []uint32 {
	var out []uint32
	if id, ok := s.dom.ID(value); ok {
		if first, last := s.idx.EqualRange(id); first < last {
			out = append(out, s.rids[first:last]...)
		}
	}
	return deltaEqualAppend(s.runs, value, out)
}

// qc returns the owning table's result cache (nil when caching is off).
func (ix *ShardedIndex) qc() *qcache.Cache {
	if ix.tbl == nil {
		return nil
	}
	return ix.tbl.Cache()
}

// SelectIn returns the RIDs of rows whose column equals any value in the
// IN-list, against one table-level epoch: the list is translated through the
// domain with one lockstep descent per chunk and probed with the sharded
// index's batched equal-range against one frozen cross-shard snapshot, with
// large lists fanned across the parallel worker pool.  Duplicate list values
// contribute their rows once; RIDs come back grouped by list order,
// ascending within a value.  Results are cached per frozen epoch.
func (ix *ShardedIndex) SelectIn(values []uint32) []uint32 {
	out, _ := ix.selectIn(nil, dedupeValues(values), nil)
	return out
}

// SelectInCtx is SelectIn under governance; the list probes enter the
// owning table's admission controller as ClassSelect after a cache miss.
func (ix *ShardedIndex) SelectInCtx(ctx context.Context, values []uint32) ([]uint32, error) {
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	out, err := ix.selectIn(ctl, dedupeValues(values), nil)
	if err != nil {
		governor.NoteAbort(err)
	}
	return out, err
}

// selectIn is SelectIn over a pre-deduplicated list, threading the
// governance handle (nil = ungoverned) and a trace span recording the
// epoch-layer cache outcome and execution shape.
func (ix *ShardedIndex) selectIn(ctl *governor.Ctl, distinct []uint32, sp *telemetry.Span) ([]uint32, error) {
	s := ix.cur.Load()
	qc, tok := ix.qc(), qcache.Token{Epoch: s.uid}
	var key qcache.Key
	grouped := false
	if qc.Enabled() {
		cs := sp.Child("cache")
		key = inFP(ix.tbl.name, ix.colName, qcache.LayerEpoch, distinct)
		if rids, ok := qc.Lookup(key, tok); ok {
			cs.Attr("outcome", "hit").AttrInt("rows", len(rids))
			cs.End()
			return rids, nil
		}
		if len(distinct) > 0 {
			if r, ok := qc.LookupInReuse(key, tok, distinct); ok {
				if len(r.Missing) == 0 {
					// Not re-admitted: the source entry already answers any
					// repeat of this subset at the same price.
					out, _ := assembleInGroups(distinct, r.Groups, nil)
					cs.Attr("outcome", "subset-replay").AttrInt("rows", len(out))
					cs.End()
					return out, nil
				}
				if inFillWorthwhile(len(r.Missing), len(distinct)) {
					// Missing values probe the SAME frozen epoch the cached
					// groups were computed against — the current pointer may
					// already hold a later epoch.
					fills := make(map[uint32][]uint32, len(r.Missing))
					for _, v := range r.Missing {
						fills[v] = s.selectEqual(v)
					}
					out, goff := assembleInGroups(distinct, r.Groups, fills)
					cs.Attr("outcome", "superset-fill").AttrInt("missing_probes", len(r.Missing)).AttrInt("rows", len(out))
					cs.End()
					qc.NoteInFill(key, len(r.Missing))
					qc.InsertIn(key, tok, distinct, goff, out,
						estRecomputeNs(Plan{UseIndex: true, EstRows: len(out)}, 0))
					return out, nil
				}
			}
		}
		cs.Attr("outcome", "miss")
		cs.End()
		grouped = len(distinct) > 0 && (parallel.Options{}).WorkersFor(len(distinct)) <= 1
	}
	var release = func() {}
	if ix.tbl != nil {
		var aerr error
		release, aerr = ix.tbl.admit(ctl, governor.ClassSelect, 4*int64(len(distinct)))
		if aerr != nil {
			sp.Attr("aborted", aerr.Error())
			return nil, aerr
		}
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()
	v := s.idx.Snapshot()
	var out, goff []uint32
	var err error
	switch {
	case grouped:
		// Small lists stay single-threaded and record group offsets, the
		// admission shape subset/superset reuse needs; output rows are
		// identical to the ungrouped drivers.
		out, goff, err = selectInGrouped(s.dom, s.rids, distinct, v.EqualRangeBatch, s.runs, true, ctl.Checkpoint())
		ex.Attr("path", "sharded-grouped").AttrInt("workers", 1)
	case len(s.runs) == 0:
		out, err = selectInRIDs(s.dom, s.rids, distinct, v.EqualRangeBatch, parallel.Options{}, ctl)
		if ex != nil { // attr args must not run on the untraced path
			ex.Attr("path", "sharded-batch").AttrInt("workers", (parallel.Options{}).WorkersFor(len(distinct)))
		}
	default:
		out, err = selectInMerged(s.dom, s.rids, distinct, v.EqualRangeBatch, s.runs, ctl.Checkpoint())
		ex.Attr("path", "sharded-delta-merged").AttrInt("delta_runs", len(s.runs))
	}
	if err != nil {
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, err
	}
	if sp != nil {
		ex.AttrInt("shards_touched", s.idx.ShardCount()).AttrInt("rows", len(out))
	}
	ex.End()
	var ad *telemetry.Span
	if qc.Enabled() {
		ad = sp.Child("admit")
	}
	qc.InsertIn(key, tok, distinct, goff, out,
		recomputeCost(time.Since(start), Plan{UseIndex: true, EstRows: len(out)}, 0))
	ad.End()
	return out, nil
}

// joinFreeze captures the prober state for a whole join: the current
// table-level epoch (domain + RID list) and one frozen snapshot of every
// shard, so a join probes one consistent index state no matter how many
// AppendRows epochs publish while it runs.
func (ix *ShardedIndex) joinFreeze() joinProber {
	s := ix.cur.Load()
	p := &shardedJoinProber{dom: s.dom, rids: s.rids, v: s.idx.Snapshot(), runs: s.runs, epoch: s.uid}
	if ix.tbl != nil {
		p.table, p.col = ix.tbl.name, ix.colName
	}
	return p
}

// shardedJoinProber is the frozen join surface of a ShardedIndex.
type shardedJoinProber struct {
	dom   *domain.IntDomain
	rids  []uint32
	v     *cssidx.ShardedView[uint32]
	runs  []idxRun
	table string // inner identity for join-result caching
	col   string
	epoch uint64 // the frozen epoch's globally-unique uid
}

// cacheTag: a sharded inner is identified by its table and column and
// versioned by the frozen epoch captured at joinFreeze.
func (p *shardedJoinProber) cacheTag() (uint64, uint64, bool) {
	if p.table == "" {
		return 0, 0, false
	}
	h := qcache.HashString(qcache.HashString(qcache.HashSeed, p.table), p.col)
	h = qcache.HashU32(h, uint32(qcache.LayerEpoch))
	return h, p.epoch, true
}

// probeEqual runs the shared probe driver against the frozen shard snapshot.
func (p *shardedJoinProber) probeEqual(values []uint32, s *probeScratch, emit func(ordinal int, rid uint32)) int {
	return probeEqualCore(p.dom, values, s, p.v.EqualRangeBatch, p.rids, p.runs, emit)
}

// SelectRange returns the RIDs of rows with lo ≤ column ≤ hi, in (value,
// RID) order — base and delta rows interleaved exactly as a rebuilt epoch
// would order them.  Results are cached per frozen epoch under the raw
// closed bounds, with containment reuse: a cached wider range on this
// column (same epoch) answers the query by slicing its sorted run.
func (ix *ShardedIndex) SelectRange(lo, hi uint32) ([]uint32, error) {
	return ix.selectRange(nil, lo, hi, nil)
}

// SelectRangeCtx is SelectRange under governance; a cache-missing range
// enters the owning table's admission controller as ClassSelect and the
// merged result is charged against ctx's byte budget.
func (ix *ShardedIndex) SelectRangeCtx(ctx context.Context, lo, hi uint32) ([]uint32, error) {
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		governor.NoteAbort(err)
		return nil, err
	}
	out, err := ix.selectRange(ctl, lo, hi, nil)
	if err != nil {
		governor.NoteAbort(err)
	}
	return out, err
}

// selectRange is SelectRange threading the governance handle (nil =
// ungoverned) and a trace span: it records the epoch-layer cache outcome
// and, on a compute, the shards the normalized ID range touches and the
// delta runs merged in.
func (ix *ShardedIndex) selectRange(ctl *governor.Ctl, lo, hi uint32, sp *telemetry.Span) ([]uint32, error) {
	if lo > hi {
		return nil, nil
	}
	s := ix.cur.Load()
	loID, hiID := s.dom.IDRange(lo, hi)
	if loID >= hiID && len(s.runs) == 0 {
		return nil, nil
	}
	qc, tok := ix.qc(), qcache.Token{Epoch: s.uid}
	var key qcache.Key
	if qc.Enabled() {
		cs := sp.Child("cache")
		key = rangeFP(ix.tbl.name, ix.colName, qcache.LayerEpoch, lo, hi)
		if rids, kind := qc.LookupRangeKind(key, tok); kind != qcache.HitMiss {
			cs.Attr("outcome", kind.String()).AttrInt("rows", len(rids))
			cs.End()
			return rids, nil
		}
		// Gap probes run against this same frozen epoch (s.rangeMerged), so
		// stitched segments and probe results can never mix states.
		if rids, hit, err := tryStitchRange(qc, key, tok, s.estRangeRows(loID, hiID), 0, s.rangeMerged, cs); hit || err != nil {
			cs.End()
			return rids, err
		}
		cs.Attr("outcome", "miss")
		cs.End()
	}
	var release = func() {}
	if ix.tbl != nil {
		var aerr error
		release, aerr = ix.tbl.admit(ctl, governor.ClassSelect, 4*int64(s.estRangeRows(loID, hiID)))
		if aerr != nil {
			sp.Attr("aborted", aerr.Error())
			return nil, aerr
		}
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()
	out, keys, _ := s.rangeMerged(lo, hi, qc.Enabled())
	if err := ctl.Charge(4 * int64(len(out))); err != nil {
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, err
	}
	if sp != nil {
		ex.Attr("path", "sharded").
			AttrInt("shards_touched", shardsTouched(s.idx.Bounds(), loID, hiID)).
			AttrInt("delta_runs", len(s.runs)).AttrInt("rows", len(out))
	}
	ex.End()
	if qc.Enabled() {
		ad := sp.Child("admit")
		qc.InsertRange(key, tok, keys, out,
			recomputeCost(time.Since(start), Plan{UseIndex: true, EstRows: len(out)}, 0))
		ad.End()
	}
	return out, nil
}

// rangeMerged is the epoch's one range path: the base segment woven with
// the delta runs' clipped spans at read time (mergeRangeDelta).  The error
// is always nil — a sharded index has ordered access by construction — and
// is there so the method serves as a stitchProbe like SortedIndex's.
func (s *shardedEpoch) rangeMerged(lo, hi uint32, wantKeys bool) (rids, keys []uint32, err error) {
	if lo > hi {
		return nil, nil, nil
	}
	loID, hiID := s.dom.IDRange(lo, hi)
	var first, last int
	if loID < hiID {
		first, last = s.idx.LowerBound(loID), s.idx.LowerBound(hiID)
	}
	rids, keys = mergeRangeDelta(s.dom, s.keys, s.rids, first, last, s.runs, lo, hi, wantKeys)
	return rids, keys, nil
}

// estRangeRows estimates the qualifying rows of the normalized ID range
// under the planner's uniform-within-domain assumption.
func (s *shardedEpoch) estRangeRows(loID, hiID uint32) int {
	if s.dom.Len() == 0 {
		return 0
	}
	return int(float64(hiID-loID) / float64(s.dom.Len()) * float64(len(s.rids)))
}

// CountRange is SelectRange without materialising RIDs.
func (ix *ShardedIndex) CountRange(lo, hi uint32) (int, error) {
	if lo > hi {
		return 0, nil
	}
	s := ix.cur.Load()
	n := deltaCountRange(s.runs, lo, hi)
	loID, hiID := s.dom.IDRange(lo, hi)
	if loID < hiID {
		n += s.idx.LowerBound(hiID) - s.idx.LowerBound(loID)
	}
	return n, nil
}

// Close releases the current epoch's background rebuilder.  Queries remain
// valid; call when the table is done serving.
func (ix *ShardedIndex) Close() { ix.cur.Load().idx.Close() }
