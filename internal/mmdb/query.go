package mmdb

// The query layer, in three steps.
//
//  1. A segment (segment.go) is the frozen read view every index probe runs
//     against: one published epoch of a SortedIndex, whatever its search
//     structure.
//  2. A cached path answers one query shape over a segment and a cache
//     reader — the table layer's (generation, rows) reader, or the index
//     epoch's own for the index's SelectRange — and follows one protocol: a
//     lookup that returns a complete answer from one entry (exact,
//     containment, IN subset replay; the entry picked is first brought
//     current from the rows appended since), then on a miss the cache's
//     verdict on the question — seen before, or first sight — admission,
//     execute, charge, and only for a question seen before the staging the
//     cache wants and the insert.  The table layer looks up before it plans
//     and replays the plan an exact hit's entry stored (cache.go); the index
//     range compute, missRange, is written once for both layers.  Scans, IN
//     lists, WHERE conjunctions, aggregates and joins run the same stages
//     through the same helpers (env.miss, compute, stage.abort, env.fresh).
//  3. One entry: every public table surface is its *Ctx form, and the plain
//     form is the *Ctx form with a background context and no trace.  enter
//     builds the env — the governance handle and the trace span, both nil on
//     the plain path — and leave settles the histogram, the trace and the
//     abort counters.  An index's own SelectEqual and SelectRange read one
//     epoch with no entry: they are neither governed nor traced.
//
// On top of the storage this adds grouped aggregation over domain IDs (the
// classic dictionary-encoded OLAP aggregate) and access-path selection
// between an index probe and a sequential scan — the §2.2 observation that
// indexes "reduce overall computation time" only when selective, echoing the
// access-path selection of [SAC+79].

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"cssidx/internal/governor"
	"cssidx/internal/parallel"
	"cssidx/internal/qcache"
	"cssidx/internal/sortu32"
	"cssidx/internal/telemetry"
)

// env is what a query threads through execution: the governance handle
// (cancellation, deadline, byte budget) and the EXPLAIN ANALYZE span to
// record under.  Both are nil on the plain path and every method on either
// is nil-safe, so env is passed by value and costs two pointer tests.
type env struct {
	ctl *governor.Ctl
	sp  *telemetry.Span
}

// entry brackets one public query: the env, plus what leave settles.
type entry struct {
	env
	tr    *telemetry.Trace
	hist  *telemetry.Histogram
	start time.Time
	dead  error // the entry check's verdict: the query must not run
}

// enter opens a public query surface (govern.go rule 1): the handle is built
// once and checked before any shared state is touched, so an already-dead
// context costs nothing and serves nothing.  It reports whether the query may
// run; either way the caller returns through leave.  hist (nil = none) is the
// surface's latency histogram; tr may be nil.  (A method on a caller-declared
// entry, not a constructor: the bracket is on the 3 µs cache-hit path, and
// copying the struct out and back in cost more than everything it does.)
func (q *entry) enter(ctx context.Context, tr *telemetry.Trace, hist *telemetry.Histogram) bool {
	q.env = env{governor.For(ctx), tr.Root()}
	q.tr, q.hist, q.start = tr, hist, telemetry.Now()
	if q.ctl != nil {
		q.dead = q.ctl.Err()
	}
	return q.dead == nil
}

// leave closes the surface and returns the query's error: a query refused at
// entry says why on the would-be trace root, so even a zero-work EXPLAIN
// ANALYZE explains itself; one that ran has its latency observed.  The trace
// is finished and a governed abort is classified into the governor_*
// counters exactly once.
func (q *entry) leave(err error) error {
	if q.dead != nil {
		err = q.dead
		q.sp.Attr("aborted", err.Error())
	} else if q.hist != nil {
		q.hist.Since(q.start)
	}
	q.tr.Finish()
	if err != nil {
		governor.NoteAbort(err)
	}
	return err
}

// fresh passes on a result materialised in one piece in the cache — a
// replayed IN subset: a new slice of any size, charged against the caller's
// byte budget exactly once, exactly like a computed one.  Exact and
// containment hits are not charged: their copy (env.hit) is of an answer
// already paid for, and serving cached answers to a constrained query is the
// degradation order governance promises (govern.go rule 2).
func (e env) fresh(rids []uint32) ([]uint32, error) {
	if err := e.ctl.Charge(4 * int64(len(rids))); err != nil {
		return nil, err
	}
	return rids, nil
}

// explainPlan records the planner's choice and counts the committed path.
func (e env) explainPlan(p Plan) {
	ps := e.sp.Child("plan")
	ps.AttrBool("use_index", p.UseIndex).AttrInt("est_rows", p.EstRows).Attr("why", p.Why)
	ps.End()
	notePlan(p)
}

// stage is the compute stage of a query the cache could not answer: the
// admission grant held, the "execute" span open, the clock recomputeCost
// reads running.
type stage struct {
	ex      *telemetry.Span
	start   time.Time
	release func()
}

// compute opens the compute stage (govern.go rule 2: admission after the
// cache missed, released when the compute finishes or aborts — defer
// st.release()).  A refused admission is annotated on the query's span.
func (t *Table) compute(e env, class governor.Class, estBytes int64) (stage, error) {
	release, err := t.admit(e.ctl, class, estBytes)
	if err != nil {
		e.sp.Attr("aborted", err.Error())
		return stage{}, err
	}
	return stage{e.sp.Child("execute"), time.Now(), release}, nil
}

// abort annotates the execute span where execution stopped (rule 4: before
// the cache admit stage, so an aborted query never inserts).
func (st stage) abort(err error) error {
	st.ex.Attr("aborted", err.Error())
	st.ex.End()
	return err
}

// GroupRow is one group of an aggregation: the group's raw value and the
// COUNT/SUM/MIN/MAX aggregates of the measure column within it.  It aliases
// the cache's row type so grouped-aggregation results are cached and
// replayed without conversion.
type GroupRow = qcache.AggRow

// GroupAggregate computes COUNT/SUM/MIN/MAX of measureCol grouped by
// groupCol over the given rows (nil rids = all rows).  Grouping runs on
// domain IDs: one array slot per distinct value, no hashing — the payoff of
// §2.1's ordered domain encoding.  The group column's domain and its base
// rows' IDs are built on its first group-by — inside the query, so its
// deadline, cancellation and byte budget cover the build — and kept, current
// through folds, for the next one.  Rows beyond the last fold (the delta
// layer's appended tail) have no IDs yet and accumulate through a small map
// on raw values instead, merged in at the end.  Groups come back in value
// order.
//
// With a cache attached, the (groupCol, measureCol, source-RID) fingerprint
// is looked up first and the computed result admitted after — from the
// question's second miss on (cache.go).  All-rows
// aggregates (nil rids) survive absorbed appends — a hit folds the
// (group, measure) pairs of the rows appended since into the cached rows;
// explicit-RID aggregates are re-stamped, since an append cannot touch them.
func GroupAggregate(t *Table, groupCol, measureCol string, rids []uint32) ([]GroupRow, error) {
	return GroupAggregateCtx(context.Background(), t, groupCol, measureCol, rids, nil)
}

// GroupAggregateCtx is GroupAggregate under governance, recording an EXPLAIN
// ANALYZE trace under tr's root span (tr may be nil): cancellation, deadline
// and budget are observed per accumulated row (stride-amortized), and on an
// attached admission controller a cache-missing aggregate enters as
// ClassAggregate — the first class shed under overload.
func GroupAggregateCtx(ctx context.Context, t *Table, groupCol, measureCol string, rids []uint32, tr *telemetry.Trace) (rows []GroupRow, err error) {
	var q entry
	if q.enter(ctx, tr, histAggNs) {
		rows, err = groupAggregate(t, groupCol, measureCol, rids, q.env)
	}
	return rows, q.leave(err)
}

func groupAggregate(t *Table, groupCol, measureCol string, rids []uint32, e env) ([]GroupRow, error) {
	gc, ok := t.cols[groupCol]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", groupCol, t.name)
	}
	mc, ok := t.cols[measureCol]
	if !ok {
		return nil, fmt.Errorf("mmdb: no column %s in table %s", measureCol, t.name)
	}
	e.sp.Attr("table", t.name).Attr("group_col", groupCol).Attr("measure_col", measureCol)
	if rids == nil {
		e.sp.AttrInt("source_rows", t.rows).AttrBool("all_rows", true)
	} else {
		e.sp.AttrInt("source_rows", len(rids))
	}
	qc, rd := t.Cache(), t.reader(nil)
	var akey qcache.Key
	admit := false
	if qc.Enabled() {
		cs := e.sp.Child("cache")
		akey = aggFP(t.name, groupCol, measureCol, rids)
		rows, tail, ok, adm := qc.LookupAgg(akey, rd)
		if ok {
			tailRows(cs.Attr("outcome", "hit").AttrInt("groups", len(rows)), tail).End()
			return rows, nil
		}
		admit = missed(cs, adm)
	}
	// The admission estimate is the accumulator arrays — or, before the
	// column's first group-by, the build of its IDs.
	est := 8 * int64(t.baseRows)
	if g := gc.grp.Load(); g != nil {
		est = 24 * int64(g.dom.Len())
	}
	// Aggregates shed first: a cache-missing aggregate is the most
	// expensive work class, so under overload admission refuses it
	// outright rather than queueing it.
	st, err := t.compute(e, governor.ClassAggregate, est)
	if err != nil {
		return nil, err
	}
	defer st.release()
	cp := e.ctl.Checkpoint()
	grp, built, err := gc.groupsOf(t.baseRows, t.seg(groupCol), e.ctl, cp)
	if err != nil {
		return nil, st.abort(err)
	}
	if built {
		st.ex.AttrInt("built_ids", len(grp.ids))
	}
	// The accumulator arrays are the aggregate's dominant allocation:
	// charge them up front so an over-budget aggregate dies before the
	// scan, not after it.
	nGroups := grp.dom.Len()
	if err := e.ctl.Charge(24 * int64(nGroups)); err != nil {
		return nil, st.abort(err)
	}
	ids := grp.ids
	counts := make([]int64, nGroups)
	sums := make([]uint64, nGroups)
	mins := make([]uint32, nGroups)
	maxs := make([]uint32, nGroups)
	var delta map[uint32]*GroupRow

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
		id := ids[row]
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
				return nil, st.abort(err)
			}
			accumulate(row)
		}
	} else {
		for _, r := range rids {
			if err := cp.Tick(); err != nil {
				return nil, st.abort(err)
			}
			accumulate(int(r))
		}
	}
	cp.Charge(48 * int64(len(delta)))
	if err := cp.Flush(); err != nil {
		return nil, st.abort(err)
	}

	out := make([]GroupRow, 0, nGroups+len(delta))
	for id := 0; id < nGroups; id++ {
		if counts[id] == 0 {
			continue
		}
		out = append(out, GroupRow{
			Value: grp.dom.Value(uint32(id)),
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
	st.ex.Attr("path", "domain-array").AttrInt("groups", len(out)).AttrInt("delta_rows", t.rows-t.baseRows)
	st.ex.End()
	if admit {
		ad := e.sp.Child("admit")
		src := len(rids)
		if rids == nil {
			src = t.rows
		}
		qc.InsertAgg(akey, rd.Tok, measureCol, rids == nil, out,
			aggRecomputeCost(time.Since(st.start), src, len(out)))
		ad.End()
	}
	return out, nil
}

// Plan describes the access path chosen for a range predicate.
type Plan struct {
	UseIndex bool
	// EstRows estimates the qualifying rows: the share of the base rows
	// that qualify — counted through the index's sorted keys, or where no
	// index can count them (a range without ordered access, any predicate
	// on an unindexed column) assumed uniform between the column's smallest
	// and largest base value — times the rows.
	EstRows int
	Why     string // one-line explanation for EXPLAIN-style output
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
	p, _, _ := planRange(c, t.seg(col), lo, hi)
	return t.replay(p), nil
}

// replay is the Plan a reader of the table's current rows gets from plan
// ingredients: planned just now, or stored with the cache entry a hit
// answered from.  Within one generation the base is frozen, so the
// selectivity is too, and only the row estimate follows the absorbed rows.
func (t *Table) replay(p qcache.Plan) Plan {
	return Plan{UseIndex: p.UseIndex, EstRows: int(p.Frac * float64(t.rows)), Why: p.Why}
}

// planRange prices the access paths for lo ≤ c ≤ hi (empty when lo > hi),
// where seg is c's index segment (nil = unindexed).  An ordered index resolves the
// range's base span [first, last) — which the range path then reads, so
// each bound is one descent — and the selectivity is the base rows it holds
// over all base rows: row-weighted, so it stays right under skew.  Any other
// column is scanned for a range, and priced by its bounds (Column.spread).
// Table-level planning reads mutable table state, so PlanRange and the
// table's queries must not race AppendRows; queries concurrent with appends
// go through the index's own methods.
func planRange(c *Column, seg *segment, lo, hi uint32) (p qcache.Plan, first, last int) {
	switch {
	case seg == nil || seg.ord == nil:
		return rangePath(seg, c.spread(lo, hi)), 0, 0
	case lo <= hi:
		first, last = seg.bounds(lo, hi)
	}
	return rangePath(seg, seg.share(last-first)), first, last
}

// belowBase counts a cached answer's RIDs below the last fold.
func (t *Table) belowBase(rids []uint32) (n int) {
	if t.rows == t.baseRows {
		return len(rids)
	}
	for _, r := range rids {
		if int(r) < t.baseRows {
			n++
		}
	}
	return n
}

// share is the fraction of the segment's base rows that n rows are.
func (s *segment) share(n int) float64 {
	if len(s.keys) == 0 {
		return 0
	}
	return float64(n) / float64(len(s.keys))
}

// rangePath picks the path for a range of selectivity frac on a column
// whose index segment is seg (nil = unindexed).
func rangePath(seg *segment, frac float64) qcache.Plan {
	switch {
	case seg == nil:
		return qcache.Plan{UseIndex: false, Frac: frac, Why: "no index on column"}
	case seg.ord == nil:
		return qcache.Plan{UseIndex: false, Frac: frac, Why: "hash index has no ordered access"}
	case frac > scanBreakEven:
		return qcache.Plan{UseIndex: false, Frac: frac, Why: whyPct("selectivity ", frac, false, " above scan break-even")}
	default:
		return qcache.Plan{UseIndex: true, Frac: frac, Why: whyPct("selectivity ", frac, true, " below scan break-even")}
	}
}

// whyPct spells a plan's reason around a selectivity — pre, 100·frac to 0
// decimals (or 1 when oneDecimal), a percent sign, post: byte for byte the
// text fmt's %.0f%% or %.1f%% gives — without fmt and, almost always, without
// strconv, because every planned query pays for its Why, traced or not.
// strconv formats a fixed precision through its big-decimal path; here x or
// 10x is rounded in float64 instead, which is exact unless it sits within
// 1e-6 of a half (float64's error below 1e7 is ~1e-9, and strconv rounds an
// exact half to even), so those, and x outside [0, 1e6), go to strconv.
func whyPct(pre string, frac float64, oneDecimal bool, post string) string {
	var buf [80]byte
	b := append(buf[:0], pre...)
	b = appendPct(b, 100*frac, oneDecimal)
	b = append(b, '%')
	return string(append(b, post...))
}

// appendPct appends x with 0 decimals (1 when oneDecimal) as
// strconv.AppendFloat(b, x, 'f', prec, 64) does; see whyPct.
func appendPct(b []byte, x float64, oneDecimal bool) []byte {
	s, prec := x, 0
	if oneDecimal {
		s, prec = 10*x, 1
	}
	r := math.Floor(s + 0.5)
	if !(x >= 0 && x < 1e6) || math.Signbit(x) || math.Abs(s-r) > 0.5-1e-6 {
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	n := uint64(r)
	if !oneDecimal {
		return strconv.AppendUint(b, n, 10)
	}
	return append(strconv.AppendUint(b, n/10, 10), '.', byte('0'+n%10))
}

// SelectRange returns the RIDs of rows with lo ≤ col ≤ hi, choosing the
// access path with PlanRange.  RIDs come back in row order for scans and in
// value order for index probes; callers needing a specific order should
// sort (the set is identical either way — but note a cached result keeps
// the order of the path that first computed it).
//
// With a cache attached, the predicate is looked up first — including by
// containment, when a cached wider range on the column can be sliced — and
// an exact hit replays the plan its miss stored instead of planning again.
// The computed result is admitted after, stamped with the table generation,
// once the question has missed before: a first-time range runs as it would
// with caching off (cache.go).
func (t *Table) SelectRange(col string, lo, hi uint32) ([]uint32, Plan, error) {
	return t.SelectRangeCtx(context.Background(), col, lo, hi, nil)
}

// SelectRangeCtx is SelectRange under governance, recording an EXPLAIN
// ANALYZE trace under tr's root span (tr may be nil): plan choice, cache
// outcome, access path, shards touched, delta runs and per-stage timings.
// ctx's cancellation, deadline and byte budget (governor.WithBudget) are
// observed at stride boundaries inside scans and merges, and on an attached
// admission controller a cache-missing range enters as ClassSelect.  A
// cancelled query never fills the result cache, and its partial trace is
// annotated where execution stopped.
func (t *Table) SelectRangeCtx(ctx context.Context, col string, lo, hi uint32, tr *telemetry.Trace) (rids []uint32, plan Plan, err error) {
	var q entry
	if q.enter(ctx, tr, histRangeNs) {
		rids, plan, err = t.selectRange(q.env, col, lo, hi)
	}
	return rids, plan, q.leave(err)
}

func (t *Table) selectRange(e env, col string, lo, hi uint32) ([]uint32, Plan, error) {
	c, ok := t.cols[col]
	if !ok {
		return nil, Plan{}, fmt.Errorf("mmdb: no column %s in table %s", col, t.name)
	}
	e.sp.Attr("table", t.name).Attr("col", col).AttrInt("lo", int(lo)).AttrInt("hi", int(hi))
	if lo > hi {
		return nil, Plan{}, nil
	}
	// Lookup first; only what it cannot replay is planned.
	seg := t.seg(col)
	qc, rd := t.Cache(), t.reader(seg)
	key := rangeFP(t.name, col, qcache.LayerTable, lo, hi)
	a := qc.Find(key, rd, nil)
	p, first, last := a.Plan, 0, 0
	switch a.Kind {
	case qcache.HitExact:
	case qcache.HitContained: // every row in range: those below the fold are the bounds' span
		p = rangePath(seg, seg.share(t.belowBase(a.RIDs)))
	default:
		p, first, last = planRange(c, seg, lo, hi)
	}
	plan := t.replay(p)
	e.explainPlan(plan)
	switch {
	case a.Kind != qcache.HitMiss:
		return e.hit(a), plan, nil
	case p.UseIndex:
		rids, err := seg.missRange(e, rd, key, plan.EstRows, p, first, last)
		return rids, plan, err
	case t.none(p):
		// Answered without the cache: an index-planned range caches its
		// empty run instead.
		return nil, plan, nil
	}
	admit := e.miss(qc, key)
	st, err := t.compute(e, governor.ClassSelect, 4*int64(plan.EstRows))
	if err != nil {
		return nil, plan, err
	}
	defer st.release()
	out, err := scanRange(c, lo, hi, e.ctl.Checkpoint())
	if err != nil {
		return nil, plan, st.abort(err)
	}
	st.ex.Attr("path", "scan").AttrInt("rows", len(out)).End()
	// Scan results are in row order, not value order, so they enter as
	// exact-only entries (no key run, no containment slicing).
	if admit {
		ad := e.sp.Child("admit")
		qc.InsertRangeRows(key, rd.Tok, out, recomputeCost(time.Since(st.start), plan, t.rows), p)
		ad.End()
	}
	return out, plan, nil
}

// rangeQuery is an index's own cached range path: a raw closed range over
// the frozen epoch s, consulting and filling the cache as the epoch's reader,
// so lookups, refreshes and the insert all see that one epoch whatever the
// index pointer has moved on to.  The lookup comes first and only a miss
// resolves the bounds — answering a range no row of the epoch holds without
// the cache.
func (s *epoch) rangeQuery(e env, lo, hi uint32) ([]uint32, error) {
	if s.ord == nil {
		return nil, ErrNoOrderedAccess
	}
	if lo > hi {
		return nil, nil
	}
	key, rd := rangeFP(s.tbl.name, s.col, qcache.LayerEpoch, lo, hi), s.reader()
	if a := s.tbl.Cache().Find(key, rd, nil); a.Kind != qcache.HitMiss {
		return e.hit(a), nil
	}
	first, last := s.bounds(lo, hi)
	if first == last && len(s.runs) == 0 {
		return nil, nil
	}
	return s.missRange(e, rd, key, last-first, qcache.Plan{}, first, last)
}

// missRange is the one index-range compute: the miss settled, the base span
// [first, last) of the key's range woven with the delta runs, and for a
// question seen before the insert, with the plan p that chose the path.  est
// is the admission estimate in rows.
func (seg *segment) missRange(e env, rd qcache.Reader, key qcache.Key, est int, p qcache.Plan, first, last int) ([]uint32, error) {
	qc := seg.tbl.Cache()
	admit := e.miss(qc, key)
	st, err := seg.tbl.compute(e, governor.ClassSelect, 4*int64(est))
	if err != nil {
		return nil, err
	}
	defer st.release()
	// When the result will be admitted the merged raw key run rides along,
	// so any subrange of it can be answered by slicing it (containment reuse).
	out, keys := seg.rangeMerged(key.Lo, key.Hi, first, last, admit)
	if err := e.ctl.Charge(4 * int64(len(out))); err != nil {
		return nil, st.abort(err)
	}
	seg.explainRange(st.ex, first, last, len(out), false)
	st.ex.End()
	if admit {
		ad := e.sp.Child("admit")
		qc.InsertRange(key, rd.Tok, keys, out,
			recomputeCost(time.Since(st.start), Plan{UseIndex: true, EstRows: planRows(key, est, len(out))}, 0), p)
		ad.End()
	}
	return out, nil
}

// planRows is the row count the recompute-cost model prices a computed index
// entry by: the planner's estimate on the table layer; an index's own
// surface (the epoch layer) is never planned, so it is priced by what it
// materialised.
func planRows(key qcache.Key, est, rows int) int {
	if key.Layer == qcache.LayerEpoch {
		return rows
	}
	return est
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
	c, ok := t.cols[col]
	if !ok {
		return Plan{}, fmt.Errorf("mmdb: no column %s in table %s", col, t.name)
	}
	return t.replay(planIn(c, t.seg(col), dedupeValues(values))), nil
}

// planIn prices the access paths for an IN-list of distinct values on c,
// whose index segment is seg (nil = unindexed).  An index counts the base
// rows holding the values with one batched equal-range probe per chunk
// (seg.baseRowsIn); an unindexed column is priced by its bounds.
func planIn(c *Column, seg *segment, distinct []uint32) qcache.Plan {
	if seg == nil {
		frac := 0.0
		for _, v := range distinct {
			frac += c.spread(v, v)
		}
		return inPath(nil, min(frac, 1))
	}
	return inPath(seg, seg.share(seg.baseRowsIn(distinct)))
}

// baseRowsIn counts the base rows holding any of the distinct values, probed
// through a stack scratch a chunk at a time: nothing is allocated here.
func (s *segment) baseRowsIn(distinct []uint32) int {
	n := 0
	var first, last [64]int32
	for i := 0; i < len(distinct); i += len(first) {
		chunk := distinct[i:min(i+len(first), len(distinct))]
		s.equalRangeBatch(chunk, first[:len(chunk)], last[:len(chunk)])
		n += spanRows(first[:len(chunk)], last[:len(chunk)])
	}
	return n
}

// spanRows sums the base rows of equal ranges (a negative first holds none).
func spanRows(first, last []int32) (n int) {
	for i, f := range first {
		if f >= 0 {
			n += int(last[i] - f)
		}
	}
	return n
}

// inPath picks the path for an IN-list of selectivity frac on a column whose
// index segment is seg (nil = unindexed).
func inPath(seg *segment, frac float64) qcache.Plan {
	switch {
	case seg == nil:
		return qcache.Plan{UseIndex: false, Frac: frac, Why: "no index on column"}
	case frac > batchScanBreakEven:
		return qcache.Plan{UseIndex: false, Frac: frac, Why: whyPct("selectivity ", frac, false, " above batched scan break-even")}
	default:
		return qcache.Plan{UseIndex: true, Frac: frac, Why: whyPct("batched IN probe, selectivity ", frac, true, " below batched break-even")}
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
// looked up before planning, and results are stamped with the table
// generation.  An indexed column's lookup also tries the grouped entries of
// the column: a list whose every value a cached list names replays by
// concatenating cached groups.
func (t *Table) SelectIn(col string, values []uint32) ([]uint32, Plan, error) {
	return t.SelectInCtx(context.Background(), col, values, nil)
}

// SelectInCtx is SelectIn under governance and tracing; see SelectRangeCtx
// for the contract.  tr may be nil.
func (t *Table) SelectInCtx(ctx context.Context, col string, values []uint32, tr *telemetry.Trace) (rids []uint32, plan Plan, err error) {
	var q entry
	if q.enter(ctx, tr, histInNs) {
		rids, plan, err = t.selectIn(q.env, col, values)
	}
	return rids, plan, q.leave(err)
}

func (t *Table) selectIn(e env, col string, values []uint32) ([]uint32, Plan, error) {
	c, ok := t.cols[col]
	if !ok {
		return nil, Plan{}, fmt.Errorf("mmdb: no column %s in table %s", col, t.name)
	}
	distinct := dedupeValues(values)
	e.sp.Attr("table", t.name).Attr("col", col).AttrInt("values", len(values))
	// Lookup first, as for SelectRange.  Only an indexed column's lookup
	// tries subset replay: its grouped entries are index-planned lists, and
	// a list naming no value outside one holds no more base rows, so it is
	// index-planned too.  A scan-planned list must not inherit a replay's
	// probe order, and it never gets one.
	seg := t.seg(col)
	var subset []uint32
	if seg != nil {
		subset = distinct
	}
	qc, rd := t.Cache(), t.reader(seg)
	key := inFP(t.name, col, distinct)
	a := qc.Find(key, rd, subset)
	var p qcache.Plan
	switch {
	case a.Kind == qcache.HitExact:
		p = a.Plan
	case a.Kind == qcache.HitSubset:
		// A replay holds every row of its values, so its rows below the
		// last fold are the base rows an index probe would count.
		p = inPath(seg, seg.share(t.belowBase(a.RIDs)))
	default:
		p = planIn(c, seg, distinct)
	}
	plan := t.replay(p)
	e.explainPlan(plan)
	switch {
	case a.Kind == qcache.HitSubset:
		rids, err := e.fresh(e.hit(a)) // a replay is a freshly materialised answer
		return rids, plan, err
	case a.Kind != qcache.HitMiss:
		return e.hit(a), plan, nil
	case p.UseIndex:
		rids, err := seg.missIn(e, rd, key, distinct, plan.EstRows, p)
		return rids, plan, err
	}
	// The scan path caches by exact fingerprint only: no group offsets.
	admit := e.miss(qc, key)
	st, err := t.compute(e, governor.ClassSelect, 4*int64(plan.EstRows))
	if err != nil {
		return nil, plan, err
	}
	defer st.release()
	st.ex.Attr("path", "scan")
	want := make(map[uint32]struct{}, len(distinct))
	for _, v := range distinct {
		want[v] = struct{}{}
	}
	var out []uint32
	cp := e.ctl.Checkpoint()
	for row, v := range c.raw {
		if err := cp.Tick(); err != nil {
			return nil, plan, st.abort(err)
		}
		if _, hit := want[v]; hit {
			out = append(out, uint32(row))
			cp.Charge(4)
		}
	}
	if err := cp.Flush(); err != nil {
		return nil, plan, st.abort(err)
	}
	st.ex.AttrInt("rows", len(out)).End()
	if admit {
		ad := e.sp.Child("admit")
		qc.InsertIn(key, rd.Tok, distinct, nil, out, recomputeCost(time.Since(st.start), plan, t.rows), p)
		ad.End()
	}
	return out, plan, nil
}

// missIn is the index path of a table IN-list: the miss settled, then the
// batched probe (selectIn), and for a list seen before admission with the
// value list, the plan p that chose the path and (for lists that stay on one
// worker) the group offsets replay and refresh splicing need; a first-time
// list collects no offsets.  est is the admission estimate in rows.
func (seg *segment) missIn(e env, rd qcache.Reader, key qcache.Key, distinct []uint32, est int, p qcache.Plan) ([]uint32, error) {
	qc := seg.tbl.Cache()
	admit := e.miss(qc, key)
	st, err := seg.tbl.compute(e, governor.ClassSelect, 4*int64(est))
	if err != nil {
		return nil, err
	}
	defer st.release()
	grouped := admit && (parallel.Options{}).WorkersFor(len(distinct)) <= 1
	seg.explainIn(st.ex, len(distinct), grouped)
	out, goff, err := seg.selectIn(e.ctl, distinct, grouped, parallel.Options{})
	if err != nil {
		return nil, st.abort(err)
	}
	if seg.shards != nil && st.ex != nil {
		st.ex.AttrInt("shards_touched", seg.shards.ShardCount())
	}
	st.ex.AttrInt("rows", len(out)).End()
	// The value list rides along so a refresh can test the rows appended
	// since against the entry instead of dropping it.
	if admit {
		ad := e.sp.Child("admit")
		qc.InsertIn(key, rd.Tok, distinct, goff, out,
			recomputeCost(time.Since(st.start), Plan{UseIndex: true, EstRows: est}, 0), p)
		ad.End()
	}
	return out, nil
}

// RangePred is one conjunct of a multi-column predicate: lo ≤ Col ≤ hi.
type RangePred struct {
	Col    string
	Lo, Hi uint32
}

// SelectWhere evaluates a conjunction of range predicates.  Each conjunct
// picks its own access path (the PlanRange model) and yields a RID set —
// an index span or a cached run read in place, or a scan's rows; the sets
// are ANDed on a row bitmap (bitmapIntersect): the smallest is marked one bit
// per row, every other clears the marks it holds, and only the few survivors
// are sorted.  The returned RIDs are ascending and the caller's own.  A conjunct
// the plan shows empty (Lo > Hi, or no base row in range and no appended
// tail) answers the whole conjunction without computing the others.
//
// The boundary probes are batched: the bounds of the conjuncts an ordered
// index serves are resolved to base positions with one LowerBoundBatch
// lockstep descent per index (planWhere) — 2×N scalar descents collapse
// into a handful of lockstep groups whose cache misses overlap — and the
// same positions price the conjunct and delimit the span it reads.
//
// With a cache attached, the whole conjunction is fingerprinted and looked
// up first (hit = one lookup, zero probes, the conjunct plans its miss
// stored; an absorbed append is merged in by qualifying the appended rows
// against every conjunct), and each conjunct's RID run is cached
// individually, so two dashboards sharing a predicate share its work even
// when their conjunctions differ — including by containment when one
// dashboard's range covers the other's.
func (t *Table) SelectWhere(preds []RangePred) ([]uint32, []Plan, error) {
	return t.SelectWhereCtx(context.Background(), preds, nil)
}

// SelectWhereCtx is SelectWhere under governance and tracing, with one child
// span per conjunct; see SelectRangeCtx for the contract.  Admission is
// acquired once for the whole conjunction.  tr may be nil.
func (t *Table) SelectWhereCtx(ctx context.Context, preds []RangePred, tr *telemetry.Trace) (rids []uint32, plans []Plan, err error) {
	var q entry
	if q.enter(ctx, tr, histWhereNs) {
		rids, plans, err = t.selectWhere(q.env, preds)
	}
	return rids, plans, q.leave(err)
}

func (t *Table) selectWhere(e env, preds []RangePred) ([]uint32, []Plan, error) {
	if len(preds) == 0 {
		return nil, nil, fmt.Errorf("mmdb: SelectWhere needs at least one predicate")
	}
	e.sp.Attr("table", t.name).AttrInt("conjuncts", len(preds))
	// The conjunction's key is its raw bounds whatever the plans, so the
	// lookup comes first: a hit replays the conjunct plans its miss stored,
	// and only a miss resolves the bounds and plans.
	qc, rd := t.Cache(), t.reader(nil)
	wkey := whereFP(t.name, preds)
	a := qc.Find(wkey, rd, nil)
	hit := a.Kind == qcache.HitExact
	ps := e.sp.Child("plan")
	bounds := a.Preds
	var first, last []int32
	if !hit {
		var err error
		if bounds, first, last, err = t.planWhere(preds); err != nil {
			return nil, nil, err
		}
	}
	plans := make([]Plan, len(preds))
	indexed := 0
	estBytes := int64(0)
	empty := -1
	for i, b := range bounds {
		plans[i] = t.replay(b.Plan)
		if plans[i].UseIndex {
			indexed++
		}
		estBytes += 4 * int64(plans[i].EstRows)
		if !hit && empty < 0 && (b.Lo > b.Hi || t.none(b.Plan)) {
			empty = i
		}
	}
	ps.AttrInt("index_conjuncts", indexed).AttrInt("scan_conjuncts", len(preds)-indexed)
	ps.End()
	if hit {
		return e.hit(a), plans, nil
	}
	if empty >= 0 {
		// The intersection is empty whatever the other conjuncts hold: no
		// cache, no admission, no probes.
		p := preds[empty]
		e.sp.Child("conjunct").Attr("col", p.Col).AttrInt("lo", int(p.Lo)).AttrInt("hi", int(p.Hi)).
			Attr("path", "empty").End()
		return nil, plans, nil
	}
	admit := e.miss(qc, wkey)
	// One grant covers the whole conjunction.
	st, err := t.compute(e, governor.ClassSelect, estBytes)
	if err != nil {
		return nil, nil, err
	}
	defer st.release()

	// Resolve each conjunct's RID set: a cached run, an index span, a delta
	// weave or a scan.  Per-conjunct results that complete before an abort
	// are valid data and stay cached; the conjunction entry itself is only
	// inserted on full completion.  Each conjunct's range is a question of
	// its own, with its own admission verdict.  A cached run and an index
	// span with no delta runs to weave are read where they lie, borrowed;
	// only scans and delta weaves are materialised.
	sets := make([]ridSet, len(preds))
	for i, p := range preds {
		cj := st.ex.Child("conjunct")
		cj.Attr("col", p.Col).AttrInt("lo", int(p.Lo)).AttrInt("hi", int(p.Hi))
		if err := e.ctl.Err(); err != nil {
			cj.Attr("aborted", err.Error()).End()
			return nil, nil, st.abort(err)
		}
		// Each conjunct walks the range protocol on its own span: no
		// admission (the conjunction holds the grant), no stage spans, and
		// entries priced by the model alone.
		seg := t.seg(p.Col)
		ckey := rangeFP(t.name, p.Col, qcache.LayerTable, p.Lo, p.Hi)
		crd := rd
		if plans[i].UseIndex {
			crd = t.reader(seg)
		}
		if ca := qc.Find(ckey, crd, nil); ca.Kind != qcache.HitMiss {
			sets[i] = ridSet{rids: ca.RIDs}
			if cj != nil { // attr args must not run on the untraced path
				tailRows(cj.Attr("path", "cache-"+ca.Kind.String()).AttrInt("rows", len(ca.RIDs)), ca.Tail).End()
			}
			continue
		}
		adm := qc.Miss(ckey)
		// An index span with no delta runs to weave is borrowed, not copied,
		// but charged as the rows it feeds the intersection, as a scanned
		// conjunct's are.
		var rids, keys []uint32
		f, l := int(first[i]), int(last[i])
		borrowed := plans[i].UseIndex && len(seg.runs) == 0
		switch {
		case !plans[i].UseIndex:
			rids, err = scanRange(t.cols[p.Col], p.Lo, p.Hi, e.ctl.Checkpoint())
		case borrowed:
			rids, keys = seg.rids[f:l], seg.keys[f:l]
			err = e.ctl.Charge(4 * int64(len(rids)))
		default:
			rids, keys = seg.rangeMerged(p.Lo, p.Hi, f, l, adm)
			err = e.ctl.Charge(4 * int64(len(rids)))
		}
		if err != nil {
			cj.Attr("aborted", err.Error()).End()
			return nil, nil, st.abort(err)
		}
		sets[i] = ridSet{rids: rids, own: !borrowed}
		if plans[i].UseIndex {
			seg.explainRange(cj, f, l, len(rids), borrowed)
		} else {
			cj.Attr("path", "scan").AttrInt("rows", len(rids))
		}
		cj.End()
		switch {
		case adm && plans[i].UseIndex:
			qc.InsertRange(ckey, rd.Tok, keys, rids, estRecomputeNs(plans[i], t.rows), bounds[i].Plan)
		case adm:
			qc.InsertRangeRows(ckey, rd.Tok, rids, estRecomputeNs(plans[i], t.rows), bounds[i].Plan)
		}
	}

	is := st.ex.Child("intersect")
	acc, err := t.intersect(sets, e.ctl.Err)
	if err != nil {
		is.Attr("aborted", err.Error()).End()
		return nil, nil, st.abort(err)
	}
	is.AttrInt("rows", len(acc))
	is.End()
	st.ex.AttrInt("rows", len(acc))
	st.ex.End()
	if admit {
		ad := e.sp.Child("admit")
		cost := time.Since(st.start).Nanoseconds()
		est := int64(0)
		for i := range plans {
			est += estRecomputeNs(plans[i], t.rows)
		}
		if est > cost {
			cost = est
		}
		// The conjunct bounds ride along: a refresh qualifies appended rows
		// against them, and a hit replays their plans.
		qc.InsertWhere(wkey, rd.Tok, bounds, acc, cost)
		ad.End()
	}
	return acc, plans, nil
}

// planWhere plans every conjunct of a conjunction, returning with each plan
// the base span [first[i], last[i]) of the conjuncts an ordered index
// serves.  Their bounds are grouped by index, so each index answers all of
// its conjuncts' bounds in ONE LowerBoundBatch lockstep descent instead of
// 2×N scalar descents (the batched range-scan item).
func (t *Table) planWhere(preds []RangePred) (bounds []qcache.PredBound, first, last []int32, err error) {
	bounds = make([]qcache.PredBound, len(preds))
	first, last = make([]int32, len(preds)), make([]int32, len(preds))
	byIndex := map[*segment][]int{}
	var segs []*segment // byIndex's keys in conjunct order: a deterministic resolution order
	for i, p := range preds {
		c, ok := t.cols[p.Col]
		if !ok {
			return nil, nil, nil, fmt.Errorf("mmdb: no column %s in table %s", p.Col, t.name)
		}
		bounds[i] = qcache.PredBound{Col: p.Col, Lo: p.Lo, Hi: p.Hi}
		seg := t.seg(p.Col)
		if seg == nil || seg.ord == nil || p.Lo > p.Hi {
			bounds[i].Plan, _, _ = planRange(c, seg, p.Lo, p.Hi)
			continue
		}
		if byIndex[seg] == nil {
			segs = append(segs, seg)
		}
		byIndex[seg] = append(byIndex[seg], i)
	}
	for _, seg := range segs {
		list := byIndex[seg]
		probes := make([]uint32, 0, 2*len(list))
		for _, i := range list {
			// The closed upper bound becomes an exclusive lower-bound probe
			// at Hi+1; Hi = MaxUint32 cannot (it would wrap) and is fixed up
			// to the end of the keys below, as in segment.bounds.
			probes = append(probes, preds[i].Lo, preds[i].Hi+1)
		}
		out := make([]int32, len(probes))
		seg.ord.LowerBoundBatch(probes, out)
		for j, i := range list {
			first[i], last[i] = out[2*j], out[2*j+1]
			if preds[i].Hi == math.MaxUint32 {
				last[i] = int32(len(seg.keys))
			}
			bounds[i].Plan = rangePath(seg, seg.share(int(last[i]-first[i])))
		}
	}
	return bounds, first, last, nil
}

// none reports whether a plan proves that no live row qualifies: its
// selectivity is exactly zero — an index counted no base row in range, or
// the range misses the column's bounds — and no row was appended since the
// last fold.
func (t *Table) none(p qcache.Plan) bool { return p.Frac == 0 && t.rows == t.baseRows }

// ridMaps pools the one-bit-per-row maps conjunctions are ANDed on, so each
// concurrently running SelectWhere holds one map of rows/8 bytes.  A map
// always goes back all-zero: bitmapIntersect clears exactly the bits it set,
// never the whole map.
var ridMaps = sync.Pool{New: func() any { return new([]uint64) }}

// ridSet is one conjunct's RIDs and whether the conjunction owns them: a
// scan or a delta weave made for it, as opposed to a span of an index's
// published array or of a resident cache payload, which are shared and
// read-only.
type ridSet struct {
	rids []uint32
	own  bool
}

// intersect ANDs a conjunction's RID sets on a pooled row bitmap, grown to
// cover every row — unfolded tail rows included — when short.
func (t *Table) intersect(sets []ridSet, check func() error) ([]uint32, error) {
	bm := ridMaps.Get().(*[]uint64)
	if w := (t.rows + 63) / 64; len(*bm) < w {
		*bm = make([]uint64, w)
	}
	out, err := bitmapIntersect(*bm, sets, check)
	ridMaps.Put(bm)
	return out, err
}

// bitmapIntersect returns the ascending intersection of sets, each
// duplicate-free with every RID below 64·len(bm); bm must be all-zero and
// is all-zero again on return, on every path.  The smallest set is the
// running result: its RIDs are marked, the next set clears the marks it
// holds, and the RIDs whose marks were cleared survive — so the work is
// linear in the input and only the (small) result is sorted.  Survivors are
// written over the running result when the conjunction owns it and into a
// fresh slice of exactly their count otherwise: no set is written but an
// owned running result, and a result is copied only when it would be
// borrowed.  check runs before each filter; its error abandons the
// intersection.
func bitmapIntersect(bm []uint64, sets []ridSet, check func() error) ([]uint32, error) {
	small := 0
	for i, s := range sets {
		if len(s.rids) < len(sets[small].rids) {
			small = i
		}
	}
	sets[0], sets[small] = sets[small], sets[0]
	acc := sets[0]
	for _, s := range sets[1:] {
		if len(acc.rids) == 0 {
			break
		}
		mark(bm, acc.rids)
		if err := check(); err != nil {
			unmark(bm, acc.rids)
			return nil, err
		}
		acc = filter(bm, acc, s.rids)
	}
	if !acc.own {
		acc.rids = append([]uint32(nil), acc.rids...)
	}
	sortu32.Sort(acc.rids)
	return acc.rids, nil
}

// filter keeps the RIDs of acc, all marked in bm, that s also holds, and
// leaves bm all-zero.  The pass over s clears the marks it finds and counts
// them; the pass over acc keeps the RIDs whose mark is gone and clears the
// rest.  The clear is a branch, not a branch-free store: survivors are few,
// and a store per RID of s would dirty every map line s touches (14 against
// 18 µs on BenchmarkSelectWhere).
func filter(bm []uint64, acc ridSet, s []uint32) ridSet {
	n := 0
	for _, r := range s {
		if bm[r>>6]>>(r&63)&1 != 0 {
			bm[r>>6] &^= 1 << (r & 63)
			n++
		}
	}
	out := acc.rids[:0]
	if !acc.own {
		out = make([]uint32, 0, n)
	}
	for _, r := range acc.rids {
		if bm[r>>6]>>(r&63)&1 == 0 {
			out = append(out, r)
		} else {
			bm[r>>6] &^= 1 << (r & 63)
		}
	}
	return ridSet{rids: out, own: true}
}

func mark(bm []uint64, rids []uint32) {
	for _, r := range rids {
		bm[r>>6] |= 1 << (r & 63)
	}
}

// unmark zeroes the words holding rids — the only words set.
func unmark(bm []uint64, rids []uint32) {
	for _, r := range rids {
		bm[r>>6] = 0
	}
}
