package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"cssidx"
	"cssidx/internal/mmdb"
	"cssidx/internal/qcache"
	"cssidx/internal/telemetry"
)

// dss_repeat and dss_adhoc run the same query mix over the same star schema
// with the same cache budget.  dss_repeat draws its parameters from a pool
// of templates whose results fit the cache, so qcache answers most ops;
// dss_adhoc gives every query fresh parameters, so the planner, the domain
// bound resolution, the tree probes and the materialisation do the work and
// the cache only admits and evicts.  A cache change predicts no change on
// dss_adhoc: if it moves, the cache's overhead moved.

const (
	dssFactRows   = 2_000_000
	dssDimRows    = 65_536
	dssDValues    = 4_096 // distinct values of fact.d
	dssGroups     = 64    // distinct values of fact.g
	dssOuterRows  = 4_096 // rows of a join's outer table
	dssShards     = 8
	dssCacheBytes = 64 << 20
	dssZipfS      = 1.2
	dssInFamily   = 8  // members of one IN-list family
	dssInParent   = 56 // values of a family's parent list

	// Range predicates on k select this share of the rows, log-spaced.  The
	// cache's budget is per lock stripe (MaxBytes/16 = 4 MiB) and every
	// range result of one column lives in one stripe, so these widths — not
	// the 64 MiB total — are what makes dss_repeat's pool fit: its ~330
	// cached k-ranges (ranges, aggregate sources, WHERE conjuncts) average
	// 1,270 rows, 10 KB each.
	dssRangeLo = 0.0001
	dssRangeHi = 0.002

	dssRepeatOpsSec = 160_000 // pinned stream lengths: queries per second of -seconds
	dssAdhocOpsSec  = 2_800
	// The class of query i is a fixed interleaving, so every segment has the
	// mix; but the cache fills along the stream (dss_adhoc slows to a sixth
	// of its first segment's rate before it levels off), so segments differ
	// by design and the median of five is reported.
	dssSegments = 5
)

const (
	dssRange = iota
	dssIn
	dssWhere
	dssSharded
	dssAgg
	dssJoin
	dssClassCount
)

var dssClasses = []classDef{
	{"range", kindRead}, {"in", kindRead}, {"where", kindRead},
	{"sharded_range", kindRead}, {"agg", kindRead}, {"join", kindRead},
}

// dssMix is the class mix per 100 queries; dssPool the templates of each
// class in dss_repeat's pool of 512.
var (
	dssMix  = [dssClassCount]int{40, 25, 20, 10, 4, 1}
	dssPool = [dssClassCount]int{205, 128, 102, 51, 21, 5}
)

// dssPattern is the class of query i mod 100: the mix above in a fixed
// interleaving, so the class mix is exact and the same for every seed.
var dssPattern = func() [100]uint8 {
	var p [100]uint8
	i := 0
	for c, share := range dssMix {
		for j := 0; j < share; j++ {
			p[i] = uint8(c)
			i++
		}
	}
	rand.New(rand.NewSource(100)).Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
	return p
}()

// query is one parameterised statement.
type query struct {
	class  uint8
	lo, hi uint32           // bounds on k (range, where, agg) or on d (sharded_range)
	preds  []mmdb.RangePred // where
	values []uint32         // in
	outer  *mmdb.Table      // join
	first  int              // rows the first execution returned; -1 before it
}

type dss struct{ repeat bool }

func (w dss) name() string {
	if w.repeat {
		return "dss_repeat"
	}
	return "dss_adhoc"
}

type dssInst struct {
	repeat bool
	// The harness's own copies of the columns: the oracle scans these.
	k, d, g, m []uint32
	dimRow     []uint32 // dim row holding id v

	db     *mmdb.DB
	fact   *mmdb.Table
	dimIdx *mmdb.SortedIndex

	queries []query
	ops     []int32 // query index per op
	perCls  []int

	answers []answer // sampled ops, checked after the pass
	rows    int64    // rows returned, all ops
	plans   int      // access-path decisions the stream's queries returned
	indexed int      // … of which chose the index

	joinSum uint64 // checksum accumulated by the running join's emit
	emit    func(outerRID, innerRID uint32)

	hitNs, missNs []int64 // traced pass: op time by cache outcome
}

// ladder returns the step-th of 16 log-spaced values between lo and hi: the
// shape of a template is a function of its rank, not of the seed, so runs
// with different seeds do the same amount of work on different data.
func ladder(step int, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, float64(step*7%16)/15)
}

func (w dss) setup(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x647373))
	in := &dssInst{repeat: w.repeat}
	n := cfg.n(dssFactRows)
	dValues := max(min(dssDValues, n/64), 4)
	dimRows := cfg.n(dssDimRows)
	in.k, in.d, in.g, in.m = make([]uint32, n), make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := 0; i < n; i++ {
		in.k[i] = rng.Uint32()
		in.d[i] = uint32(rng.Intn(dValues))
		in.g[i] = uint32(rng.Intn(dssGroups))
		in.m[i] = uint32(rng.Intn(1 << 20))
	}
	dimID := make([]uint32, dimRows)
	in.dimRow = make([]uint32, dimRows)
	for row, id := range rng.Perm(dimRows) {
		dimID[row], in.dimRow[id] = uint32(id), uint32(row)
	}

	in.db = mmdb.NewDB(cfg.cacheOptions(dssCacheBytes))
	var err error
	if in.fact, err = in.db.CreateTable("fact"); err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		vals []uint32
	}{{"k", in.k}, {"d", in.d}, {"g", in.g}, {"m", in.m}} {
		if err := in.fact.AddColumn(c.name, c.vals); err != nil {
			return nil, err
		}
	}
	if _, err := in.fact.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		return nil, err
	}
	if _, err := in.fact.BuildShardedIndex("d", dssShards); err != nil {
		return nil, err
	}
	dim, err := in.db.CreateTable("dim")
	if err != nil {
		return nil, err
	}
	if err := dim.AddColumn("id", dimID); err != nil {
		return nil, err
	}
	if in.dimIdx, err = dim.BuildIndex("id", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		return nil, err
	}

	gen := &dssGen{rng: rng, in: in, cfg: cfg, dValues: dValues, dimRows: dimRows}
	nOps := cfg.ops(dssAdhocOpsSec)
	if w.repeat {
		nOps = cfg.ops(dssRepeatOpsSec)
	}
	in.ops = make([]int32, nOps)
	in.perCls = make([]int, dssClassCount)
	if w.repeat {
		// The pool: dssPool templates per class, picked Zipf by rank.
		var start [dssClassCount]int
		var zipf [dssClassCount]*rand.Zipf
		for c := 0; c < dssClassCount; c++ {
			start[c] = len(in.queries)
			for r := 0; r < dssPool[c]; r++ {
				q, err := gen.query(c, r)
				if err != nil {
					return nil, err
				}
				in.queries = append(in.queries, q)
			}
			zipf[c] = rand.NewZipf(rng, dssZipfS, 1, uint64(dssPool[c]-1))
		}
		for i := range in.ops {
			c := int(dssPattern[i%100])
			in.ops[i] = int32(start[c] + int(zipf[c].Uint64()))
			in.perCls[c]++
		}
	} else {
		in.queries = make([]query, 0, nOps)
		for i := range in.ops {
			c := int(dssPattern[i%100])
			q, err := gen.query(c, i)
			if err != nil {
				return nil, err
			}
			in.queries = append(in.queries, q)
			in.ops[i] = int32(i)
			in.perCls[c]++
		}
	}
	in.answers = make([]answer, 0, nOps/oracleEvery+1)
	in.emit = func(o, i uint32) { in.joinSum += mix(uint64(o)<<32 | uint64(i)) }
	return in, nil
}

// dssGen draws query parameters.  step fixes a query's shape (selectivity,
// list length); the seed picks where in the domain it lands.
type dssGen struct {
	rng     *rand.Rand
	in      *dssInst
	cfg     config
	dValues int
	dimRows int
	parent  []uint32 // current IN family's parent list, in probe order
	joins   int
}

// kRange returns a closed range of k covering the given share of the domain.
func kRange(rng *rand.Rand, share float64) (lo, hi uint32) {
	width := uint32(share * math.MaxUint32)
	lo = uint32(rng.Int63n(int64(math.MaxUint32 - width)))
	return lo, lo + width
}

// dRange returns a closed range of d spanning the given number of values.
func (g *dssGen) dRange(span int) (lo, hi uint32) {
	span = max(1, min(span, g.dValues))
	lo = uint32(g.rng.Intn(g.dValues - span + 1))
	return lo, lo + uint32(span) - 1
}

// kValues draws n IN-list values: nine in ten are values some row holds.
func (g *dssGen) kValues(n int) []uint32 {
	v := make([]uint32, n)
	for i := range v {
		if g.rng.Intn(10) == 0 {
			v[i] = g.rng.Uint32()
		} else {
			v[i] = g.in.k[g.rng.Intn(len(g.in.k))]
		}
	}
	return v
}

func (g *dssGen) query(class, step int) (query, error) {
	q := query{class: uint8(class), first: -1}
	switch class {
	case dssRange, dssAgg:
		q.lo, q.hi = kRange(g.rng, ladder(step, dssRangeLo, dssRangeHi))
	case dssWhere:
		lo, hi := kRange(g.rng, ladder(step, 2*dssRangeLo, dssRangeHi))
		dlo, dhi := g.dRange(1 + step/16%4)
		q.preds = []mmdb.RangePred{{Col: "k", Lo: lo, Hi: hi}, {Col: "d", Lo: dlo, Hi: dhi}}
	case dssSharded:
		// 4–16 of the d values: about as long as a WHERE or an aggregate
		// when computed, so dss_adhoc's median read (ranges are 40% of the
		// mix, the next 34% are these three classes) falls among similar
		// latencies and not on the gap above the ranges.
		q.lo, q.hi = g.dRange(4 + step%13)
	case dssIn:
		if !g.in.repeat {
			q.values = g.kValues(8 + step*13%57)
			break
		}
		// Families: a parent list, subsets of it (replayed from the
		// parent's cached groups) and near-supersets (the parent plus a few
		// values: under a fifth of the list, so the cache fills them in).
		switch member := step % dssInFamily; {
		case member == 0:
			g.parent = g.kValues(dssInParent)
			q.values = g.parent
		case member <= 4:
			q.values = slices.Clone(g.parent[:[]int{8, 16, 32, 48}[member-1]])
		default:
			q.values = append(slices.Clone(g.parent), g.kValues([]int{2, 4, 8}[member-5])...)
		}
	case dssJoin:
		name := fmt.Sprintf("outer%d", g.joins)
		g.joins++
		t, err := g.in.db.CreateTable(name)
		if err != nil {
			return q, err
		}
		ids := make([]uint32, g.cfg.n(dssOuterRows))
		for i := range ids {
			ids[i] = uint32(g.rng.Intn(g.dimRows))
		}
		if err := t.AddColumn("dim_id", ids); err != nil {
			return q, err
		}
		q.outer = t
	}
	return q, nil
}

func (in *dssInst) classes() []classDef    { return dssClasses }
func (in *dssInst) opCount() int           { return len(in.ops) }
func (in *dssInst) segments() segmentation { return segmentation{n: dssSegments} }
func (in *dssInst) callsPerClass() []int   { return in.perCls }
func (in *dssInst) heapRows() int          { return len(in.k) + len(in.dimRow) }

func (in *dssInst) close() error {
	if six, ok := in.fact.ShardedIndex("d"); ok {
		six.Close()
	}
	return nil
}

func (in *dssInst) streamHash() uint64 {
	h := newHasher()
	for _, op := range in.ops {
		q := &in.queries[op]
		h.u64(uint64(q.class)<<40 | uint64(op))
		h.u64(uint64(q.lo)<<32 | uint64(q.hi))
		h.u32s(q.values)
		for _, p := range q.preds {
			h.u64(uint64(p.Lo)<<32 | uint64(p.Hi))
		}
	}
	return h.sum
}

// exec runs one query through the engine's plain surfaces and returns the
// number of rows (groups, pairs) it produced and, when sum is set, an
// order-independent checksum of the result.
func (in *dssInst) exec(q *query, op int, tr *tracer, root int32, sum bool) (n int, s uint64, err error) {
	var rids []uint32
	var plan mmdb.Plan
	switch q.class {
	case dssRange, dssSharded, dssAgg:
		col := "k"
		if q.class == dssSharded {
			col = "d"
		}
		call := tr.begin(root, "mmdb", "Table.SelectRange", op)
		rids, plan, err = in.fact.SelectRange(col, q.lo, q.hi)
		tr.end(call)
		in.notePlan(plan)
		if q.class != dssAgg || err != nil {
			break
		}
		call = tr.begin(root, "mmdb", "GroupAggregate", op)
		groups, aerr := mmdb.GroupAggregate(in.fact, "g", "m", rids)
		tr.end(call)
		if sum {
			s = groupSum(groups)
		}
		return len(groups), s, aerr
	case dssIn:
		call := tr.begin(root, "mmdb", "Table.SelectIn", op)
		rids, plan, err = in.fact.SelectIn("k", q.values)
		tr.end(call)
		in.notePlan(plan)
	case dssWhere:
		var plans []mmdb.Plan
		call := tr.begin(root, "mmdb", "Table.SelectWhere", op)
		rids, plans, err = in.fact.SelectWhere(q.preds)
		tr.end(call)
		for _, p := range plans {
			in.notePlan(p)
		}
	case dssJoin:
		in.joinSum = 0
		call := tr.begin(root, "mmdb", "JoinWith", op)
		n, err = mmdb.JoinWith(q.outer, "dim_id", in.dimIdx, mmdb.JoinOptions{}, in.emit)
		tr.end(call)
		return n, in.joinSum, err
	}
	if sum {
		s = ridSum(rids)
	}
	return len(rids), s, err
}

func (in *dssInst) notePlan(p mmdb.Plan) {
	in.plans++
	if p.UseIndex {
		in.indexed++
	}
}

func groupSum(groups []mmdb.GroupRow) uint64 {
	h := newHasher()
	for _, r := range groups {
		h.u64(uint64(r.Value))
		h.u64(uint64(r.Count))
		h.u64(r.Sum)
		h.u64(uint64(r.Min)<<32 | uint64(r.Max))
	}
	return h.sum
}

func (in *dssInst) run(ph *phase, tr *tracer, limit int, res *result) {
	for i := 0; i < limit; i++ {
		q := &in.queries[in.ops[i]]
		sampled := i%oracleEvery == 0
		root := tr.begin(0, "op", dssClasses[q.class].name, i)
		start := time.Now()
		n, sum, err := in.exec(q, i, tr, root, sampled)
		ns := time.Since(start).Nanoseconds()
		tr.end(root)
		ph.add(int(q.class), ns)
		in.rows += int64(n)
		switch {
		case err != nil:
			res.fail("op %d (%s): %v", i, dssClasses[q.class].name, err)
		case q.first < 0:
			q.first = n
		case q.first != n:
			res.fail("op %d (%s): %d rows, the template's first run returned %d", i, dssClasses[q.class].name, n, q.first)
		}
		if sampled && tr == nil {
			in.answers = append(in.answers, answer{op: i, count: n, sum: sum})
		}
		if tr != nil {
			if tr.delta(root, "hits") > 0 && tr.delta(root, "misses") == 0 {
				in.hitNs = append(in.hitNs, ns)
			} else {
				in.missNs = append(in.missNs, ns)
			}
		}
	}
}

// verify recomputes every sampled answer by brute-force scans of the
// harness's own column copies.  IN-lists share one pass over the column.
func (in *dssInst) verify(res *result) {
	rows := len(in.k)
	seen := map[int32]bool{}
	var inLists []inQuery
	for _, a := range in.answers {
		qi := in.ops[a.op]
		if seen[qi] {
			continue // a repeat of a template already checked; its row count was
		}
		seen[qi] = true
		q := &in.queries[qi]
		var n int
		var s uint64
		switch q.class {
		case dssRange:
			n, s = scanRange(in.k, rows, q.lo, q.hi)
		case dssSharded:
			n, s = scanRange(in.d, rows, q.lo, q.hi)
		case dssWhere:
			kp, dp := q.preds[0], q.preds[1]
			for r := 0; r < rows; r++ {
				if in.k[r] >= kp.Lo && in.k[r] <= kp.Hi && in.d[r] >= dp.Lo && in.d[r] <= dp.Hi {
					n++
					s += mix(uint64(r))
				}
			}
		case dssAgg:
			n, s = in.scanAgg(q.lo, q.hi)
		case dssJoin:
			col, _ := q.outer.Column("dim_id")
			for r := 0; r < col.Len(); r++ {
				s += mix(uint64(r)<<32 | uint64(in.dimRow[col.Value(r)]))
				n++
			}
		case dssIn:
			inLists = append(inLists, inQuery{values: q.values, rows: rows, count: a.count, sum: a.sum, op: a.op})
			continue
		}
		if n != a.count || s != a.sum {
			res.fail("op %d (%s): %d rows (sum %x), the oracle scan found %d (sum %x)",
				a.op, dssClasses[q.class].name, a.count, a.sum, n, s)
		}
	}
	for _, q := range scanInMany(in.k, inLists) {
		res.fail("op %d (in): %d rows, the oracle scan found %d", q.op, q.count, q.found)
	}
}

// scanAgg is the oracle for GroupAggregate(g, m) over the rows with
// lo ≤ k ≤ hi: groups in value order, COUNT/SUM/MIN/MAX each.
func (in *dssInst) scanAgg(lo, hi uint32) (int, uint64) {
	var acc [dssGroups]mmdb.GroupRow
	for r, v := range in.k {
		if v < lo || v > hi {
			continue
		}
		a, m := &acc[in.g[r]], in.m[r]
		if a.Count == 0 || m < a.Min {
			a.Min = m
		}
		if a.Count == 0 || m > a.Max {
			a.Max = m
		}
		a.Count++
		a.Sum += uint64(m)
	}
	var groups []mmdb.GroupRow
	for v := range acc {
		if acc[v].Count > 0 {
			acc[v].Value = uint32(v)
			groups = append(groups, acc[v])
		}
	}
	return len(groups), groupSum(groups)
}

func (in *dssInst) report(ph *phase, res *result) {
	n := len(in.ops)
	putClassLatencies(res, ph, "range", "in", "where")
	// One query in ten, in twenty-five, in a hundred: medians only.
	for _, class := range []string{"sharded_range", "agg", "join"} {
		putPct(res, ph, "mmdb."+class+"_p50_us", ofClass(class), 50)
	}
	res.put("mmdb.index_plan_share", "ratio", float64(in.indexed)/float64(max(in.plans, 1)), in.plans)
	res.put("mmdb.rows_per_query", "count", float64(in.rows)/float64(n), n)
	putCacheStats(res, qcache.Stats{}, in.db.Cache().Stats(), n)
}

func (in *dssInst) release() {
	in.k, in.d, in.g, in.m, in.dimRow = nil, nil, nil, nil, nil
	in.ops, in.answers = nil, nil
	// The join outers are engine tables: keep those, drop the parameters.
	for i := range in.queries {
		in.queries[i].values, in.queries[i].preds = nil, nil
	}
}

func (in *dssInst) counters() ([]string, func(*[maxCounts]int64)) {
	names := []string{"hits", "misses", "inserts", "rejects", "evictions", "cache_bytes", "alloc_bytes"}
	return names, func(c *[maxCounts]int64) {
		st := in.db.Cache().Stats()
		c[0], c[1], c[2], c[3], c[4], c[5] = st.Hits, st.Misses, st.Inserts, st.Rejects, st.Evictions, st.Bytes
		c[6] = allocatedBytes()
	}
}

func (in *dssInst) isolate(cfg config, tr *tracer, res *result) error {
	putHitMiss(res, in.hitNs, in.missNs)
	isolateDomain(tr, res, in.k)

	// The planner alone: PlanRange and PlanIn on the stream's parameters.
	plans := 0
	ns := spanned(tr, "mmdb", "PlanRange/PlanIn", func() {
		for _, op := range in.ops[:min(len(in.ops), 20_000)] {
			q := &in.queries[op]
			switch q.class {
			case dssRange, dssAgg:
				p, _ := in.fact.PlanRange("k", q.lo, q.hi)
				sink += p.EstRows
			case dssSharded:
				p, _ := in.fact.PlanRange("d", q.lo, q.hi)
				sink += p.EstRows
			case dssIn:
				p, _ := in.fact.PlanIn("k", q.values)
				sink += p.EstRows
			default:
				continue
			}
			plans++
		}
	})
	res.put("mmdb.plan_ns", "ns", ns/float64(max(plans, 1)), plans)

	if in.repeat {
		in.isolateTelemetry(tr, res)
	}
	return nil
}

// isolateTelemetry replays a fifth of the stream with telemetry collection
// off and on, alternating, on the cache state the traced pass left: the cost
// the ≤2% bar of ROADMAP aim 4 is about.
func (in *dssInst) isolateTelemetry(tr *tracer, res *result) {
	fifth := len(in.ops) / 5
	replay := func(name string) float64 {
		return spanned(tr, "telemetry", name, func() {
			for i := 0; i < fifth; i++ {
				n, _, _ := in.exec(&in.queries[in.ops[i]], i, nil, 0, false)
				sink += n
			}
		})
	}
	replay("warm")
	var off, on []float64
	for r := 0; r < 2; r++ {
		off = append(off, replay("off"))
		telemetry.Enable()
		on = append(on, replay("on"))
		telemetry.Disable()
	}
	res.put("telemetry.enabled_overhead_pct", "%", 100*(median(on)/median(off)-1), 2*fifth)
}

// oracleEvery is the sampling rate of the brute-force oracle: one query in
// this many is recomputed from the raw columns.
const oracleEvery = 64

// putClassLatencies reports p50 and p99 of each named query class.
func putClassLatencies(res *result, ph *phase, classes ...string) {
	for _, class := range classes {
		putPct(res, ph, "mmdb."+class+"_p50_us", ofClass(class), 50)
		putPct(res, ph, "mmdb."+class+"_p99_us", ofClass(class), 99)
	}
}

// putCacheStats reports the result cache's counters over a pass.  One client
// drives the engine, so for a given seed the counts repeat exactly.
func putCacheStats(res *result, before, after qcache.Stats, n int) {
	d := func(a, b int64) float64 { return float64(a - b) }
	hits, misses := d(after.Hits, before.Hits), d(after.Misses, before.Misses)
	reuse := d(after.ContainedHits, before.ContainedHits) + d(after.StitchedHits, before.StitchedHits) +
		d(after.SubsetHits, before.SubsetHits) + d(after.SupersetHits, before.SupersetHits) +
		d(after.AggregateHits, before.AggregateHits)
	inserts := d(after.Inserts, before.Inserts)
	res.put("qcache.hit_rate", "ratio", hits/max(hits+misses, 1), int(hits+misses))
	res.put("qcache.exact_hits", "count", hits-reuse, n)
	res.put("qcache.contained_hits", "count", d(after.ContainedHits, before.ContainedHits), n)
	res.put("qcache.stitched_hits", "count", d(after.StitchedHits, before.StitchedHits), n)
	res.put("qcache.gap_probes", "count", d(after.GapProbes, before.GapProbes), n)
	res.put("qcache.subset_hits", "count", d(after.SubsetHits, before.SubsetHits), n)
	res.put("qcache.superset_hits", "count", d(after.SupersetHits, before.SupersetHits), n)
	res.put("qcache.missing_key_probes", "count", d(after.MissingKeyProbes, before.MissingKeyProbes), n)
	res.put("qcache.agg_hits", "count", d(after.AggregateHits, before.AggregateHits), n)
	res.put("qcache.misses", "count", misses, n)
	res.put("qcache.inserts", "count", inserts, n)
	res.put("qcache.rejects", "count", d(after.Rejects, before.Rejects), n)
	res.put("qcache.evictions", "count", d(after.Evictions, before.Evictions), n)
	res.put("qcache.invalidations", "count", d(after.Invalidations, before.Invalidations), n)
	res.put("qcache.patches", "count", d(after.Patches, before.Patches), n)
	res.put("qcache.bytes_end", "B", float64(after.Bytes), n)
	res.put("qcache.hits_per_insert", "ratio", hits/max(inserts, 1), int(inserts))
}

// putHitMiss reports the traced pass's op time split by cache outcome: an op
// is a hit when the cache's hit count rose across it and its miss count did
// not.
func putHitMiss(res *result, hitNs, missNs []int64) {
	if len(hitNs) > 0 {
		res.put("qcache.hit_op_us_p50", "us", percentileNs(hitNs, 50)/1e3, len(hitNs))
	}
	if len(missNs) > 0 {
		res.put("qcache.miss_op_us_p50", "us", percentileNs(missNs, 50)/1e3, len(missNs))
	}
}
