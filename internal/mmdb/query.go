package mmdb

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cssidx/internal/governor"
	"cssidx/internal/parallel"
	"cssidx/internal/qcache"
	"cssidx/internal/sortu32"
	"cssidx/internal/telemetry"
)

// abortEntry finalizes a query that died before execution started (the
// entry governance check failed): the abort is classified into the
// governor_* counters and the would-be trace root carries the annotation,
// so even a zero-work EXPLAIN ANALYZE says why it stopped.
func abortEntry(tr *telemetry.Trace, err error) error {
	governor.NoteAbort(err)
	tr.Root().Attr("aborted", err.Error())
	tr.Finish()
	return err
}

// This file adds the decision-support query layer on top of the storage:
// grouped aggregation over domain IDs (the classic dictionary-encoded OLAP
// aggregate) and access-path selection between an index probe and a
// sequential scan — the §2.2 observation that indexes "reduce overall
// computation time" only when selective, echoing the access-path selection
// of [SAC+79].

// GroupRow is one group of an aggregation: the group's raw value and the
// COUNT/SUM/MIN/MAX aggregates of the measure column within it.  It aliases
// the cache's row type so grouped-aggregation results are cached and
// replayed without conversion.
type GroupRow = qcache.AggRow

// GroupAggregate computes COUNT/SUM/MIN/MAX of measureCol grouped by
// groupCol over the given rows (nil rids = all rows).  Grouping runs on
// domain IDs: one array slot per distinct value, no hashing — the payoff of
// §2.1's ordered domain encoding.  Rows beyond the frozen encoding (the
// delta layer's appended tail) have no IDs yet and accumulate through a
// small map on raw values instead, merged in at the end.  Groups come back
// in value order.
//
// With a cache attached, the (groupCol, measureCol, source-RID) fingerprint
// is looked up first and the computed result admitted after.  All-rows
// aggregates (nil rids) survive absorbed appends — PatchAppend folds the
// batch's (group, measure) pairs into the cached rows; explicit-RID
// aggregates are retokened when the append cannot touch them.
func GroupAggregate(t *Table, groupCol, measureCol string, rids []uint32) ([]GroupRow, error) {
	start := telemetry.Now()
	rows, err := groupAggregate(t, groupCol, measureCol, rids, nil, nil)
	histAggNs.Since(start)
	return rows, err
}

// GroupAggregateTraced is GroupAggregate recording an EXPLAIN ANALYZE
// trace under tr's root span.  tr may be nil.
func GroupAggregateTraced(t *Table, groupCol, measureCol string, rids []uint32, tr *telemetry.Trace) ([]GroupRow, error) {
	start := telemetry.Now()
	rows, err := groupAggregate(t, groupCol, measureCol, rids, nil, tr.Root())
	histAggNs.Since(start)
	tr.Finish()
	return rows, err
}

// GroupAggregateCtx is GroupAggregate under governance: cancellation,
// deadline and budget are observed per accumulated row (stride-amortized),
// and on an attached admission controller a cache-missing aggregate enters
// as ClassAggregate — the first class shed under overload.  tr may be nil.
func GroupAggregateCtx(ctx context.Context, t *Table, groupCol, measureCol string, rids []uint32, tr *telemetry.Trace) ([]GroupRow, error) {
	start := telemetry.Now()
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		return nil, abortEntry(tr, err)
	}
	rows, err := groupAggregate(t, groupCol, measureCol, rids, ctl, tr.Root())
	histAggNs.Since(start)
	tr.Finish()
	if err != nil {
		governor.NoteAbort(err)
	}
	return rows, err
}

func groupAggregate(t *Table, groupCol, measureCol string, rids []uint32, ctl *governor.Ctl, sp *telemetry.Span) ([]GroupRow, error) {
	gc, ok := t.cols[groupCol]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", groupCol, t.name)
	}
	mc, ok := t.cols[measureCol]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", measureCol, t.name)
	}
	sp.Attr("table", t.name).Attr("group_col", groupCol).Attr("measure_col", measureCol)
	if rids == nil {
		sp.AttrInt("source_rows", t.rows).AttrBool("all_rows", true)
	} else {
		sp.AttrInt("source_rows", len(rids))
	}
	qc, tok := t.Cache(), t.token()
	var akey qcache.Key
	var cs *telemetry.Span
	if qc.Enabled() {
		cs = sp.Child("cache")
		akey = aggFP(t.name, groupCol, measureCol, rids)
		if rows, ok := qc.LookupAgg(akey, tok); ok {
			cs.Attr("outcome", "hit").AttrInt("groups", len(rows))
			cs.End()
			return rows, nil
		}
		cs.Attr("outcome", "miss")
		cs.End()
	}
	nGroups := gc.dom.Len()
	// Aggregates shed first: a cache-missing aggregate is the most
	// expensive work class, so under overload admission refuses it
	// outright rather than queueing it.
	release, aerr := t.admit(ctl, governor.ClassAggregate, 24*int64(nGroups))
	if aerr != nil {
		sp.Attr("aborted", aerr.Error())
		return nil, aerr
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()
	// The accumulator arrays are the aggregate's dominant allocation:
	// charge them up front so an over-budget aggregate dies before the
	// scan, not after it.
	if err := ctl.Charge(24 * int64(nGroups)); err != nil {
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, err
	}
	counts := make([]int64, nGroups)
	sums := make([]uint64, nGroups)
	mins := make([]uint32, nGroups)
	maxs := make([]uint32, nGroups)
	var delta map[uint32]*GroupRow
	cp := ctl.Checkpoint()

	accumulate := func(row int) {
		v := mc.raw[row]
		if row >= t.baseRows {
			if delta == nil {
				delta = map[uint32]*GroupRow{}
			}
			val := gc.raw[row]
			g, ok := delta[val]
			if !ok {
				delta[val] = &GroupRow{Value: val, Count: 1, Sum: uint64(v), Min: v, Max: v}
				return
			}
			if v < g.Min {
				g.Min = v
			}
			if v > g.Max {
				g.Max = v
			}
			g.Count++
			g.Sum += uint64(v)
			return
		}
		id := gc.ids[row]
		if counts[id] == 0 {
			mins[id] = v
			maxs[id] = v
		} else {
			if v < mins[id] {
				mins[id] = v
			}
			if v > maxs[id] {
				maxs[id] = v
			}
		}
		counts[id]++
		sums[id] += uint64(v)
	}
	if rids == nil {
		for row := 0; row < t.rows; row++ {
			if err := cp.Tick(); err != nil {
				ex.Attr("aborted", err.Error())
				ex.End()
				return nil, err
			}
			accumulate(row)
		}
	} else {
		for _, r := range rids {
			if err := cp.Tick(); err != nil {
				ex.Attr("aborted", err.Error())
				ex.End()
				return nil, err
			}
			accumulate(int(r))
		}
	}
	cp.Charge(48 * int64(len(delta)))
	if err := cp.Flush(); err != nil {
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, err
	}

	out := make([]GroupRow, 0, nGroups+len(delta))
	for id := 0; id < nGroups; id++ {
		if counts[id] == 0 {
			continue
		}
		out = append(out, GroupRow{
			Value: gc.dom.Value(uint32(id)),
			Count: counts[id],
			Sum:   sums[id],
			Min:   mins[id],
			Max:   maxs[id],
		})
	}
	if len(delta) > 0 {
		for i := range out {
			if d, ok := delta[out[i].Value]; ok {
				if d.Min < out[i].Min {
					out[i].Min = d.Min
				}
				if d.Max > out[i].Max {
					out[i].Max = d.Max
				}
				out[i].Count += d.Count
				out[i].Sum += d.Sum
				delete(delta, out[i].Value)
			}
		}
		for _, d := range delta {
			out = append(out, *d)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	}
	ex.Attr("path", "domain-array").AttrInt("groups", len(out)).AttrInt("delta_rows", t.rows-t.baseRows)
	ex.End()
	if qc.Enabled() {
		ad := sp.Child("admit")
		src := len(rids)
		if rids == nil {
			src = t.rows
		}
		qc.InsertAgg(akey, tok, measureCol, rids == nil, out,
			aggRecomputeCost(time.Since(start), src, len(out)))
		ad.End()
	}
	return out, nil
}

// Plan describes the access path chosen for a range predicate.
type Plan struct {
	UseIndex bool
	EstRows  int    // estimated qualifying rows (uniform-within-domain assumption)
	Why      string // one-line explanation for EXPLAIN-style output
}

// scanBreakEven is the estimated selectivity above which a sequential scan
// beats probing + gathering through the index: in main memory a scan
// streams cache lines while index-ordered RID gathering hops randomly.
const scanBreakEven = 0.20

// batchScanBreakEven is the break-even for *batched* probe streams (IN-lists,
// join chunks): lockstep descents overlap the probes' cache misses and the
// directory's upper levels stay cache-resident across the batch, so the
// per-probe cost drops and the index stays ahead of a scan to markedly
// higher selectivity than a scalar probe would.
const batchScanBreakEven = 0.35

// PlanRange chooses between the column's index and a sequential scan for
// the predicate lo ≤ col ≤ hi.
func (t *Table) PlanRange(col string, lo, hi uint32) (Plan, error) {
	c, ok := t.cols[col]
	if !ok {
		return Plan{}, fmt.Errorf("mmdb: no column %s in table %s", col, t.name)
	}
	loID, hiID := c.dom.IDRange(lo, hi)
	return t.planRangeIDs(col, c, loID, hiID), nil
}

// planRangeIDs prices the access paths for a range predicate already
// normalized to the half-open domain-ID range [loID, hiID) — the shared
// core behind PlanRange and SelectWhere's batched bound resolution.
func (t *Table) planRangeIDs(col string, c *Column, loID, hiID uint32) Plan {
	frac := 0.0
	if c.dom.Len() > 0 {
		frac = float64(hiID-loID) / float64(c.dom.Len())
	}
	est := int(frac * float64(t.rows))
	// Ordered access comes from a non-hash SortedIndex or, failing that, a
	// sharded index (note that Table-level planning reads mutable table
	// state, so PlanRange/SelectRange themselves must not race AppendRows;
	// for queries concurrent with batch rebuilds go through the
	// ShardedIndex methods directly).
	ix, indexed := t.indexes[col]
	_, shardedOK := t.sharded[col]
	ordered := (indexed && ix.Kind().String() != "hash") || (!indexed && shardedOK)
	switch {
	case !indexed && !shardedOK:
		return Plan{UseIndex: false, EstRows: est, Why: "no index on column"}
	case !ordered:
		return Plan{UseIndex: false, EstRows: est, Why: "hash index has no ordered access"}
	case frac > scanBreakEven:
		return Plan{UseIndex: false, EstRows: est,
			Why: fmt.Sprintf("selectivity %.0f%% above scan break-even", 100*frac)}
	case !indexed:
		return Plan{UseIndex: true, EstRows: est,
			Why: fmt.Sprintf("sharded index, selectivity %.1f%% below scan break-even", 100*frac)}
	default:
		return Plan{UseIndex: true, EstRows: est,
			Why: fmt.Sprintf("selectivity %.1f%% below scan break-even", 100*frac)}
	}
}

// SelectRange returns the RIDs of rows with lo ≤ col ≤ hi, choosing the
// access path with PlanRange.  RIDs come back in row order for scans and in
// value order for index probes; callers needing a specific order should
// sort (the set is identical either way — but note a cached result keeps
// the order of the path that first computed it).
//
// With a cache attached, the normalized predicate is looked up first —
// including by containment, when a cached wider range on the column can be
// sliced — and the computed result is admitted after, stamped with the
// table generation.
func (t *Table) SelectRange(col string, lo, hi uint32) ([]uint32, Plan, error) {
	start := telemetry.Now()
	rids, plan, err := t.selectRange(nil, col, lo, hi, nil)
	histRangeNs.Since(start)
	return rids, plan, err
}

// SelectRangeTraced is SelectRange recording an EXPLAIN ANALYZE trace
// under tr's root span: plan choice, cache outcome, access path, shards
// touched, delta runs and per-stage timings.  tr may be nil.
func (t *Table) SelectRangeTraced(col string, lo, hi uint32, tr *telemetry.Trace) ([]uint32, Plan, error) {
	start := telemetry.Now()
	rids, plan, err := t.selectRange(nil, col, lo, hi, tr.Root())
	histRangeNs.Since(start)
	tr.Finish()
	return rids, plan, err
}

// SelectRangeCtx is SelectRange under governance: ctx's cancellation,
// deadline and byte budget (governor.WithBudget) are observed at stride
// boundaries inside scans and merges, and on an attached admission
// controller a cache-missing range enters as ClassSelect.  A cancelled
// query never fills the result cache; with tr attached the partial
// EXPLAIN ANALYZE tree is annotated where execution stopped.  tr may be
// nil.
func (t *Table) SelectRangeCtx(ctx context.Context, col string, lo, hi uint32, tr *telemetry.Trace) ([]uint32, Plan, error) {
	start := telemetry.Now()
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		return nil, Plan{}, abortEntry(tr, err)
	}
	rids, plan, err := t.selectRange(ctl, col, lo, hi, tr.Root())
	histRangeNs.Since(start)
	tr.Finish()
	if err != nil {
		governor.NoteAbort(err)
	}
	return rids, plan, err
}

func (t *Table) selectRange(ctl *governor.Ctl, col string, lo, hi uint32, sp *telemetry.Span) ([]uint32, Plan, error) {
	c, ok := t.cols[col]
	if !ok {
		return nil, Plan{}, fmt.Errorf("mmdb: no column %s in table %s", col, t.name)
	}
	sp.Attr("table", t.name).Attr("col", col).AttrInt("lo", int(lo)).AttrInt("hi", int(hi))
	if lo > hi {
		return nil, Plan{}, nil
	}
	ps := sp.Child("plan")
	loID, hiID := c.dom.IDRange(lo, hi)
	plan := t.planRangeIDs(col, c, loID, hiID)
	ps.AttrBool("use_index", plan.UseIndex).AttrInt("est_rows", plan.EstRows).Attr("why", plan.Why)
	ps.End()
	notePlan(plan)
	if plan.UseIndex {
		if ix, ok := t.indexes[col]; ok {
			rids, err := t.selectRangeIndexed(ctl, ix, col, lo, hi, plan, sp)
			return rids, plan, err
		}
		rids, err := t.sharded[col].selectRange(ctl, lo, hi, sp) // cached per frozen epoch inside
		return rids, plan, err
	}
	if loID >= hiID && t.rows == t.baseRows {
		return nil, plan, nil // no live value in [lo, hi]
	}
	qc, tok := t.Cache(), t.token()
	key := rangeFP(t.name, col, qcache.LayerTable, lo, hi)
	var cs *telemetry.Span
	if qc.Enabled() {
		cs = sp.Child("cache")
	}
	if rids, kind := qc.LookupRangeKind(key, tok); kind != qcache.HitMiss {
		cs.Attr("outcome", kind.String()).AttrInt("rows", len(rids))
		cs.End()
		return rids, plan, nil
	}
	cs.Attr("outcome", "miss")
	cs.End()
	release, aerr := t.admit(ctl, governor.ClassSelect, 4*int64(plan.EstRows))
	if aerr != nil {
		sp.Attr("aborted", aerr.Error())
		return nil, plan, aerr
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()
	out, err := scanRange(c, lo, hi, ctl.Checkpoint())
	if err != nil {
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, plan, err
	}
	ex.Attr("path", "scan").AttrInt("rows", len(out))
	ex.End()
	// Scan results are in row order, not value order, so they enter as
	// exact-only entries (no key run, no containment slicing).
	var ad *telemetry.Span
	if qc.Enabled() {
		ad = sp.Child("admit")
	}
	qc.InsertRange(key, tok, nil, out, recomputeCost(time.Since(start), plan, t.rows))
	ad.End()
	return out, plan, nil
}

// selectRangeIndexed answers a raw closed range through the sorted index —
// base segment merged with the delta runs — consulting and filling the
// token-stamped cache.
func (t *Table) selectRangeIndexed(ctl *governor.Ctl, ix *SortedIndex, col string, lo, hi uint32, plan Plan, sp *telemetry.Span) ([]uint32, error) {
	qc, tok := t.Cache(), t.token()
	key := rangeFP(t.name, col, qcache.LayerTable, lo, hi)
	var cs *telemetry.Span
	if qc.Enabled() {
		cs = sp.Child("cache")
	}
	if rids, kind := qc.LookupRangeKind(key, tok); kind != qcache.HitMiss {
		cs.Attr("outcome", kind.String()).AttrInt("rows", len(rids))
		cs.End()
		return rids, nil
	}
	if rids, ok, err := tryStitchRange(qc, key, tok, plan.EstRows, t.rows, ix.rangeMerged, cs); ok || err != nil {
		cs.End()
		// The stitched entry is valid data; only the caller's budget can
		// still refuse the materialised copy.
		if err == nil {
			err = ctl.Charge(4 * int64(len(rids)))
			if err != nil {
				rids = nil
			}
		}
		return rids, err
	}
	cs.Attr("outcome", "miss")
	cs.End()
	release, aerr := t.admit(ctl, governor.ClassSelect, 4*int64(plan.EstRows))
	if aerr != nil {
		sp.Attr("aborted", aerr.Error())
		return nil, aerr
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()
	// The merged raw key run rides along so any subrange of this result
	// can be answered by slicing it (containment reuse).
	out, keys, err := ix.rangeMerged(lo, hi, qc.Enabled())
	if err == nil {
		err = ctl.Charge(4 * int64(len(out)))
	}
	if err != nil {
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, err
	}
	ex.Attr("path", "sorted-index").AttrInt("delta_runs", len(ix.runs)).AttrInt("rows", len(out))
	ex.End()
	var ad *telemetry.Span
	if qc.Enabled() {
		ad = sp.Child("admit")
	}
	qc.InsertRange(key, tok, keys, out, recomputeCost(time.Since(start), plan, t.rows))
	ad.End()
	return out, nil
}

// stitchProbe answers one uncovered gap of a stitch plan: the index's own
// range path (rangeMerged) over the closed value range [lo, hi], asked for
// the raw key run stitched results are admitted with.
type stitchProbe func(lo, hi uint32, wantKeys bool) (rids, keys []uint32, err error)

// stitchAssemble materialises a stitch plan: cached segments and probed
// gaps concatenate in ascending value order.  The output slices are fresh —
// segment slices alias immutable cache memory and must not escape to
// callers that may sort or grow the result.
func stitchAssemble(sp *qcache.StitchPlan, probe stitchProbe) (rids, keys []uint32, err error) {
	rids = make([]uint32, 0, sp.CachedRows)
	keys = make([]uint32, 0, sp.CachedRows)
	si, gi := 0, 0
	for si < len(sp.Segments) || gi < len(sp.Gaps) {
		if gi >= len(sp.Gaps) || (si < len(sp.Segments) && sp.Segments[si].Lo < sp.Gaps[gi].Lo) {
			s := sp.Segments[si]
			rids = append(rids, s.RIDs...)
			keys = append(keys, s.Keys...)
			si++
			continue
		}
		g := sp.Gaps[gi]
		pr, pk, perr := probe(g.Lo, g.Hi, true)
		if perr != nil {
			return nil, nil, perr
		}
		rids = append(rids, pr...)
		keys = append(keys, pk...)
		gi++
	}
	return rids, keys, nil
}

// tryStitchRange attempts to answer a range fingerprint by stitching
// overlapping cached runs with gap probes, committing only when the cost
// model prefers the stitch over recomputing (stitchWorthwhile).  On commit
// the stitched run is admitted under the request's own key — admission
// supersedes the runs it covers, so overlapping dashboard windows converge
// to one covering run instead of accumulating fragments.
func tryStitchRange(qc *qcache.Cache, key qcache.Key, tok qcache.Token, estRows, tableRows int, probe stitchProbe, cs *telemetry.Span) ([]uint32, bool, error) {
	sp, ok := qc.StitchRange(key, tok)
	if !ok || !stitchWorthwhile(sp, key.Lo, key.Hi, estRows) {
		return nil, false, nil
	}
	rids, keys, err := stitchAssemble(sp, probe)
	if err != nil {
		return nil, false, err
	}
	cs.Attr("outcome", "stitched").AttrInt("gap_probes", len(sp.Gaps)).
		AttrInt("cached_rows", sp.CachedRows).AttrInt("rows", len(rids))
	qc.NoteStitch(key, len(sp.Gaps))
	qc.InsertRange(key, tok, keys, rids, estRecomputeNs(Plan{UseIndex: true, EstRows: len(rids)}, tableRows))
	return rids, true, nil
}

// scanRange is the sequential-scan access path: stream the raw column and
// collect matching row numbers, in row order.  cp (nil = ungoverned) is
// consulted per row at the amortized stride and charged 4 bytes per
// collected RID.
func scanRange(c *Column, lo, hi uint32, cp *governor.Checkpoint) ([]uint32, error) {
	var out []uint32
	for row, v := range c.raw {
		if err := cp.Tick(); err != nil {
			return nil, err
		}
		if v >= lo && v <= hi {
			out = append(out, uint32(row))
			cp.Charge(4)
		}
	}
	return out, cp.Flush()
}

// PlanIn chooses between the column's index and a sequential scan for the
// predicate col IN (values).  An IN-list is a probe *batch*, so the index
// side is costed with the batched break-even: batch amortisation keeps the
// index competitive to higher selectivity than a scalar probe.  Hash indexes
// qualify — an IN-list needs only equality probes, not ordered access.
func (t *Table) PlanIn(col string, values []uint32) (Plan, error) {
	return t.planIn(col, dedupeValues(values))
}

// planIn is PlanIn over an already deduplicated list, so selectIn dedupes
// once for the plan, the fingerprint and the probes.
func (t *Table) planIn(col string, distinct []uint32) (Plan, error) {
	c, ok := t.cols[col]
	if !ok {
		return Plan{}, fmt.Errorf("mmdb: no column %s in table %s", col, t.name)
	}
	present := 0
	if len(distinct) > 0 {
		ids := make([]int32, len(distinct))
		c.dom.IDsBatch(distinct, ids)
		for _, id := range ids {
			if id >= 0 {
				present++
			}
		}
	}
	frac := 0.0
	if c.dom.Len() > 0 {
		frac = float64(present) / float64(c.dom.Len())
	}
	est := int(frac * float64(t.rows))
	_, indexed := t.indexes[col]
	_, shardedOK := t.sharded[col]
	switch {
	case !indexed && !shardedOK:
		return Plan{UseIndex: false, EstRows: est, Why: "no index on column"}, nil
	case frac > batchScanBreakEven:
		return Plan{UseIndex: false, EstRows: est,
			Why: fmt.Sprintf("selectivity %.0f%% above batched scan break-even", 100*frac)}, nil
	default:
		return Plan{UseIndex: true, EstRows: est,
			Why: fmt.Sprintf("batched IN probe, selectivity %.1f%% below batched break-even", 100*frac)}, nil
	}
}

// SelectIn returns the RIDs of rows whose column equals any value in the
// IN-list, choosing the access path with PlanIn.  The index path drives the
// batched probe surface; the scan path streams the column once.  RIDs come
// back in probe order for index probes and in row order for scans (the set
// is identical either way); duplicate list values contribute rows once.
//
// With a cache attached, the deduplicated list is fingerprinted (in
// first-occurrence order, so a hit replays the exact RID grouping) and
// results are stamped with the table generation; sharded-only columns
// cache inside ShardedIndex.SelectIn per frozen epoch instead.  Index-path
// misses then try the grouped entries of the same column: a subset list
// replays by concatenating cached groups, and a near-superset probes only
// the missing values (inFillWorthwhile) before splicing them in.
func (t *Table) SelectIn(col string, values []uint32) ([]uint32, Plan, error) {
	start := telemetry.Now()
	rids, plan, err := t.selectIn(nil, col, values, nil)
	histInNs.Since(start)
	return rids, plan, err
}

// SelectInTraced is SelectIn recording an EXPLAIN ANALYZE trace under tr's
// root span.  tr may be nil.
func (t *Table) SelectInTraced(col string, values []uint32, tr *telemetry.Trace) ([]uint32, Plan, error) {
	start := telemetry.Now()
	rids, plan, err := t.selectIn(nil, col, values, tr.Root())
	histInNs.Since(start)
	tr.Finish()
	return rids, plan, err
}

// SelectInCtx is SelectIn under governance; see SelectRangeCtx for the
// contract.  tr may be nil.
func (t *Table) SelectInCtx(ctx context.Context, col string, values []uint32, tr *telemetry.Trace) ([]uint32, Plan, error) {
	start := telemetry.Now()
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		return nil, Plan{}, abortEntry(tr, err)
	}
	rids, plan, err := t.selectIn(ctl, col, values, tr.Root())
	histInNs.Since(start)
	tr.Finish()
	if err != nil {
		governor.NoteAbort(err)
	}
	return rids, plan, err
}

func (t *Table) selectIn(ctl *governor.Ctl, col string, values []uint32, sp *telemetry.Span) ([]uint32, Plan, error) {
	distinct := dedupeValues(values)
	plan, err := t.planIn(col, distinct)
	if err != nil {
		return nil, Plan{}, err
	}
	sp.Attr("table", t.name).Attr("col", col).AttrInt("values", len(values))
	ps := sp.Child("plan")
	ps.AttrBool("use_index", plan.UseIndex).AttrInt("est_rows", plan.EstRows).Attr("why", plan.Why)
	ps.End()
	notePlan(plan)
	if plan.UseIndex {
		if _, ok := t.indexes[col]; !ok {
			rids, err := t.sharded[col].selectIn(ctl, distinct, sp)
			return rids, plan, err
		}
	}
	qc, tok := t.Cache(), t.token()
	var key qcache.Key
	var cs *telemetry.Span
	if qc.Enabled() {
		cs = sp.Child("cache")
		key = inFP(t.name, col, qcache.LayerTable, distinct)
		if rids, ok := qc.Lookup(key, tok); ok {
			cs.Attr("outcome", "hit").AttrInt("rows", len(rids))
			cs.End()
			return rids, plan, nil
		}
		// Grouped reuse is index-path only: cached groups replay in probe
		// order, which a scan-planned query must not inherit.
		if plan.UseIndex && len(distinct) > 0 {
			if r, ok := qc.LookupInReuse(key, tok, distinct); ok {
				if len(r.Missing) == 0 {
					// Not re-admitted: the source entry already answers any
					// repeat of this subset at the same price, so caching the
					// derived copy would only cost an insert per replay.
					out, _ := assembleInGroups(distinct, r.Groups, nil)
					cs.Attr("outcome", "subset-replay").AttrInt("rows", len(out))
					cs.End()
					return out, plan, nil
				}
				if inFillWorthwhile(len(r.Missing), len(distinct)) {
					ix := t.indexes[col]
					fills := make(map[uint32][]uint32, len(r.Missing))
					for _, v := range r.Missing {
						fills[v] = ix.SelectEqual(v)
					}
					out, goff := assembleInGroups(distinct, r.Groups, fills)
					cs.Attr("outcome", "superset-fill").AttrInt("missing_probes", len(r.Missing)).AttrInt("rows", len(out))
					cs.End()
					qc.NoteInFill(key, len(r.Missing))
					qc.InsertIn(key, tok, distinct, goff, out, estRecomputeNs(plan, t.rows))
					return out, plan, nil
				}
			}
		}
		cs.Attr("outcome", "miss")
		cs.End()
	}
	release, aerr := t.admit(ctl, governor.ClassSelect, 4*int64(plan.EstRows))
	if aerr != nil {
		sp.Attr("aborted", aerr.Error())
		return nil, plan, aerr
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()
	var out, goff []uint32
	err = nil
	switch {
	case plan.UseIndex && qc.Enabled() && (parallel.Options{}).WorkersFor(len(distinct)) <= 1:
		// Lists small enough to stay single-threaded compute with group
		// offsets, the admission shape subset/superset reuse needs; larger
		// lists keep the parallel driver and enter ungrouped.
		out, goff, err = t.indexes[col].selectInGrouped(distinct, ctl.Checkpoint())
		ex.Attr("path", "index-grouped").AttrInt("workers", 1)
	case plan.UseIndex:
		out, err = t.indexes[col].selectInCtl(ctl, distinct)
		if ex != nil { // attr args must not run on the untraced path
			ex.Attr("path", "index-batch").AttrInt("workers", (parallel.Options{}).WorkersFor(len(distinct)))
		}
	default:
		want := make(map[uint32]struct{}, len(values))
		for _, v := range values {
			want[v] = struct{}{}
		}
		c := t.cols[col]
		cp := ctl.Checkpoint()
		for row, v := range c.raw {
			if err = cp.Tick(); err != nil {
				break
			}
			if _, hit := want[v]; hit {
				out = append(out, uint32(row))
				cp.Charge(4)
			}
		}
		if err == nil {
			err = cp.Flush()
		}
		ex.Attr("path", "scan")
	}
	if err != nil {
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, plan, err
	}
	ex.AttrInt("rows", len(out))
	ex.End()
	// The value list rides along so PatchAppend can test an absorbed batch
	// against the entry instead of dropping it.
	var ad *telemetry.Span
	if qc.Enabled() {
		ad = sp.Child("admit")
	}
	qc.InsertIn(key, tok, distinct, goff, out, recomputeCost(time.Since(start), plan, t.rows))
	ad.End()
	return out, plan, nil
}

// assembleInGroups concatenates cached groups and probed fills in the
// query's first-occurrence value order, recording the group offsets the
// assembled result is admitted with.  A nil Groups[i] takes its rows from
// fills.  The output is fresh — cached group slices are immutable.
func assembleInGroups(distinct []uint32, groups [][]uint32, fills map[uint32][]uint32) (out, goff []uint32) {
	goff = make([]uint32, 0, len(distinct)+1)
	for i, v := range distinct {
		goff = append(goff, uint32(len(out)))
		if g := groups[i]; g != nil {
			out = append(out, g...)
		} else {
			out = append(out, fills[v]...)
		}
	}
	goff = append(goff, uint32(len(out)))
	return out, goff
}

// RangePred is one conjunct of a multi-column predicate: lo ≤ Col ≤ hi.
type RangePred struct {
	Col    string
	Lo, Hi uint32
}

// SelectWhere evaluates a conjunction of range predicates.  Each conjunct
// picks its own access path (the PlanRange model), most selective first,
// and the RID sets are merge-intersected — the standard multi-index AND.
// The returned RIDs are ascending.
//
// The boundary probes are batched: all predicate bounds are translated to
// domain IDs with one LowerBoundBatch lockstep descent per distinct column
// (resolveBounds), and the index-path conjuncts resolve their sorted-array
// positions with one LowerBoundBatch per index — 2×N scalar descents
// collapse into a handful of lockstep groups whose cache misses overlap.
//
// With a cache attached, the whole conjunction is fingerprinted (hit =
// one lookup, zero probes) and each conjunct's RID run is cached
// individually, so two dashboards sharing a predicate share its work even
// when their conjunctions differ — including by containment when one
// dashboard's range covers the other's.
func (t *Table) SelectWhere(preds []RangePred) ([]uint32, []Plan, error) {
	start := telemetry.Now()
	rids, plans, err := t.selectWhere(nil, preds, nil)
	histWhereNs.Since(start)
	return rids, plans, err
}

// SelectWhereTraced is SelectWhere recording an EXPLAIN ANALYZE trace
// under tr's root span, with one child span per conjunct.  tr may be nil.
func (t *Table) SelectWhereTraced(preds []RangePred, tr *telemetry.Trace) ([]uint32, []Plan, error) {
	start := telemetry.Now()
	rids, plans, err := t.selectWhere(nil, preds, tr.Root())
	histWhereNs.Since(start)
	tr.Finish()
	return rids, plans, err
}

// SelectWhereCtx is SelectWhere under governance; see SelectRangeCtx for
// the contract.  Admission is acquired once for the whole conjunction —
// conjuncts probing sharded indexes ride the same grant.  tr may be nil.
func (t *Table) SelectWhereCtx(ctx context.Context, preds []RangePred, tr *telemetry.Trace) ([]uint32, []Plan, error) {
	start := telemetry.Now()
	ctl := governor.For(ctx)
	if err := ctl.Err(); err != nil {
		return nil, nil, abortEntry(tr, err)
	}
	rids, plans, err := t.selectWhere(ctl, preds, tr.Root())
	histWhereNs.Since(start)
	tr.Finish()
	if err != nil {
		governor.NoteAbort(err)
	}
	return rids, plans, err
}

func (t *Table) selectWhere(ctl *governor.Ctl, preds []RangePred, sp *telemetry.Span) ([]uint32, []Plan, error) {
	if len(preds) == 0 {
		return nil, nil, fmt.Errorf("mmdb: SelectWhere needs at least one predicate")
	}
	sp.Attr("table", t.name).AttrInt("conjuncts", len(preds))
	ps := sp.Child("plan")
	loIDs, hiIDs, err := t.resolveBounds(preds)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]Plan, len(preds))
	indexed := 0
	for i, p := range preds {
		plans[i] = t.planRangeIDs(p.Col, t.cols[p.Col], loIDs[i], hiIDs[i])
		if plans[i].UseIndex {
			indexed++
		}
	}
	ps.AttrInt("index_conjuncts", indexed).AttrInt("scan_conjuncts", len(preds)-indexed)
	ps.End()
	qc, tok := t.Cache(), t.token()
	var wkey qcache.Key
	var cs *telemetry.Span
	if qc.Enabled() {
		cs = sp.Child("cache")
		wkey = whereFP(t.name, preds)
		if rids, ok := qc.Lookup(wkey, tok); ok {
			cs.Attr("outcome", "hit").AttrInt("rows", len(rids))
			cs.End()
			return rids, plans, nil
		}
		cs.Attr("outcome", "miss")
		cs.End()
	}
	estBytes := int64(0)
	for i := range plans {
		estBytes += 4 * int64(plans[i].EstRows)
	}
	// One grant covers the whole conjunction: conjuncts probing sharded
	// indexes below find the query already admitted and pass for free.
	release, aerr := t.admit(ctl, governor.ClassSelect, estBytes)
	if aerr != nil {
		sp.Attr("aborted", aerr.Error())
		return nil, nil, aerr
	}
	defer release()
	ex := sp.Child("execute")
	start := time.Now()

	// Resolve each conjunct's RID set: cached runs first, scans and
	// sharded probes inline, and the sorted-index conjuncts deferred so
	// each index answers all its boundary probes in one lockstep batch.
	// A conjunct with delta rows to consider never short-circuits on an
	// empty frozen ID range — the appended tail may hold matching values
	// the dictionary has never seen.  Per-conjunct results that complete
	// before an abort are valid data and stay cached; the conjunction
	// entry itself is only inserted on full completion.
	sets := make([][]uint32, len(preds))
	byIndex := map[*SortedIndex][]int{}
	conjSpans := make([]*telemetry.Span, len(preds))
	abortConj := func(cj *telemetry.Span, err error) ([]uint32, []Plan, error) {
		cj.Attr("aborted", err.Error()).End()
		ex.Attr("aborted", err.Error())
		ex.End()
		return nil, nil, err
	}
	for i, p := range preds {
		cj := ex.Child("conjunct")
		cj.Attr("col", p.Col).AttrInt("lo", int(p.Lo)).AttrInt("hi", int(p.Hi))
		conjSpans[i] = cj
		if err := ctl.Err(); err != nil {
			return abortConj(cj, err)
		}
		if p.Lo > p.Hi || (loIDs[i] >= hiIDs[i] && t.rows == t.baseRows) {
			cj.Attr("path", "empty").End()
			continue // empty conjunct: the intersection is empty
		}
		ckey := rangeFP(t.name, p.Col, qcache.LayerTable, p.Lo, p.Hi)
		if rids, kind := qc.LookupRangeKind(ckey, tok); kind != qcache.HitMiss {
			sets[i] = rids
			if cj != nil { // attr args must not run on the untraced path
				cj.Attr("path", "cache-"+kind.String()).AttrInt("rows", len(rids)).End()
			}
			continue
		}
		if plans[i].UseIndex {
			if ix, ok := t.indexes[p.Col]; ok {
				if rids, hit, err := tryStitchRange(qc, ckey, tok, plans[i].EstRows, t.rows, ix.rangeMerged, cj); err != nil {
					return nil, nil, err
				} else if hit {
					sets[i] = rids
					cj.Attr("path", "cache-stitched").End()
					continue
				}
				if len(ix.runs) == 0 {
					byIndex[ix] = append(byIndex[ix], i)
					continue // span ends after the batched resolution below
				}
				rids, keys, err := ix.rangeMerged(p.Lo, p.Hi, qc.Enabled())
				if err == nil {
					err = ctl.Charge(4 * int64(len(rids)))
				}
				if err != nil {
					return abortConj(cj, err)
				}
				sets[i] = rids
				cj.Attr("path", "sorted-index").AttrInt("delta_runs", len(ix.runs)).AttrInt("rows", len(rids)).End()
				qc.InsertRange(ckey, tok, keys, rids, estRecomputeNs(plans[i], t.rows))
				continue
			}
			rids, err := t.sharded[p.Col].selectRange(ctl, p.Lo, p.Hi, cj)
			if err != nil {
				return abortConj(cj, err)
			}
			sets[i] = rids
			cj.AttrInt("rows", len(rids)).End()
			continue
		}
		rids, err := scanRange(t.cols[p.Col], p.Lo, p.Hi, ctl.Checkpoint())
		if err != nil {
			return abortConj(cj, err)
		}
		sets[i] = rids
		cj.Attr("path", "scan").AttrInt("rows", len(sets[i])).End()
		qc.InsertRange(ckey, tok, nil, sets[i], estRecomputeNs(plans[i], t.rows))
	}
	for ix, list := range byIndex {
		probes := make([]uint32, 0, 2*len(list))
		for _, i := range list {
			probes = append(probes, loIDs[i], hiIDs[i])
		}
		out := make([]int32, len(probes))
		ix.bord.LowerBoundBatch(probes, out)
		for j, i := range list {
			first, last := out[2*j], out[2*j+1]
			if err := ctl.Charge(4 * int64(last-first)); err != nil {
				return abortConj(conjSpans[i], err)
			}
			rids := make([]uint32, last-first)
			copy(rids, ix.rids[first:last])
			sets[i] = rids
			conjSpans[i].Attr("path", "sorted-index-batched").AttrInt("rows", len(rids)).End()
			if qc.Enabled() {
				ckey := rangeFP(t.name, preds[i].Col, qcache.LayerTable, preds[i].Lo, preds[i].Hi)
				qc.InsertRange(ckey, tok, idsToRaw(ix.col.dom, ix.keys[first:last]), rids, estRecomputeNs(plans[i], t.rows))
			}
		}
	}

	// Order conjuncts by estimated selectivity so the cheapest set drives
	// the intersection.
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && plans[order[b]].EstRows < plans[order[b-1]].EstRows; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	is := ex.Child("intersect")
	var acc []uint32
	for step, oi := range order {
		if err := ctl.Err(); err != nil {
			is.Attr("aborted", err.Error()).End()
			ex.Attr("aborted", err.Error())
			ex.End()
			return nil, nil, err
		}
		rids := sets[oi]
		sortu32.Sort(rids)
		if step == 0 {
			acc = rids
			continue
		}
		acc = intersectSorted(acc, rids)
		if len(acc) == 0 {
			break
		}
	}
	is.AttrInt("rows", len(acc))
	is.End()
	ex.AttrInt("rows", len(acc))
	ex.End()
	if qc.Enabled() {
		ad := sp.Child("admit")
		cost := time.Since(start).Nanoseconds()
		est := int64(0)
		for i := range plans {
			est += estRecomputeNs(plans[i], t.rows)
		}
		if est > cost {
			cost = est
		}
		qc.Insert(wkey, tok, acc, cost)
		ad.End()
	}
	return acc, plans, nil
}

// resolveBounds translates every predicate's closed value bounds to
// normalized half-open domain-ID ranges, grouping the probes by column so
// each domain tree answers all its bounds in ONE LowerBoundBatch lockstep
// descent instead of 2×N scalar descents (the batched range-scan item).
func (t *Table) resolveBounds(preds []RangePred) (loIDs, hiIDs []uint32, err error) {
	loIDs = make([]uint32, len(preds))
	hiIDs = make([]uint32, len(preds))
	groups := map[string][]int{}
	var cols []string // deterministic resolution order
	for i, p := range preds {
		if _, ok := t.cols[p.Col]; !ok {
			return nil, nil, fmt.Errorf("mmdb: no column %s in table %s", p.Col, t.name)
		}
		if _, seen := groups[p.Col]; !seen {
			cols = append(cols, p.Col)
		}
		groups[p.Col] = append(groups[p.Col], i)
	}
	for _, col := range cols {
		list := groups[col]
		c := t.cols[col]
		probes := make([]uint32, 0, 2*len(list))
		for _, i := range list {
			// The closed upper bound becomes an exclusive lower-bound
			// probe at Hi+1; Hi = MaxUint32 cannot (it would wrap) and is
			// fixed up to the domain size below, mirroring IDRange.
			probes = append(probes, preds[i].Lo, preds[i].Hi+1)
		}
		out := make([]int32, len(probes))
		c.dom.LowerBoundBatch(probes, out)
		for j, i := range list {
			loID := uint32(out[2*j])
			hiID := uint32(out[2*j+1])
			if preds[i].Hi == ^uint32(0) {
				hiID = uint32(c.dom.Len())
			}
			if hiID < loID {
				hiID = loID
			}
			loIDs[i], hiIDs[i] = loID, hiID
		}
	}
	return loIDs, hiIDs, nil
}

// intersectSorted merge-intersects two ascending RID slices.
func intersectSorted(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
