package mmdb

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cssidx"
	"cssidx/internal/governor"
	"cssidx/internal/telemetry"
	"cssidx/internal/workload"
)

// attrInt reads an integer span attribute, failing the test when the span or
// attribute is missing or malformed.
func attrInt(t *testing.T, sp *telemetry.Span, key string) int {
	t.Helper()
	if sp == nil {
		t.Fatalf("span missing while reading attr %q", key)
	}
	v := sp.AttrValue(key)
	if v == "" {
		t.Fatalf("span %q has no attr %q", sp.Name(), key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("span %q attr %q = %q: not an int", sp.Name(), key, v)
	}
	return n
}

func TestTraceSelectRangeMissThenHit(t *testing.T) {
	g := workload.New(7)
	tab := NewTable("t")
	if err := tab.AddColumn("v", g.SortedWithDuplicates(4000, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildIndex("v", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	tab.EnableCache(CacheOptions{MinCostNs: -1})

	tr := telemetry.NewTrace("SelectRange")
	rids, _, err := tab.SelectRangeCtx(context.Background(), "v", 100, 5000, tr)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if got := root.AttrValue("table"); got != "t" {
		t.Errorf("root table=%q, want t", got)
	}
	ps := root.Find("plan")
	if ps == nil {
		t.Fatal("miss trace has no plan span")
	}
	if ps.AttrValue("use_index") != "true" {
		t.Errorf("plan use_index=%q, want true", ps.AttrValue("use_index"))
	}
	if cs := root.Find("cache"); cs.AttrValue("outcome") != "miss" {
		t.Errorf("first query cache outcome=%q, want miss", cs.AttrValue("outcome"))
	}
	ex := root.Find("execute")
	if ex == nil {
		t.Fatal("miss trace has no execute span")
	}
	if got := ex.AttrValue("path"); got != "sorted-index" {
		t.Errorf("execute path=%q, want sorted-index", got)
	}
	if got := attrInt(t, ex, "rows"); got != len(rids) {
		t.Errorf("execute rows=%d, want %d", got, len(rids))
	}
	if root.Find("admit") == nil {
		t.Error("miss trace has no admit span (cache enabled)")
	}

	tr2 := telemetry.NewTrace("SelectRange")
	rids2, _, err := tab.SelectRangeCtx(context.Background(), "v", 100, 5000, tr2)
	if err != nil {
		t.Fatal(err)
	}
	cs := tr2.Root().Find("cache")
	if got := cs.AttrValue("outcome"); got != "hit" {
		t.Errorf("second query cache outcome=%q, want hit", got)
	}
	if got := attrInt(t, cs, "rows"); got != len(rids2) {
		t.Errorf("cache hit rows=%d, want %d", got, len(rids2))
	}
	if tr2.Root().Find("execute") != nil {
		t.Error("cache hit still recorded an execute span")
	}
}

func TestTraceSelectRangeNoCacheHasNoCacheSpan(t *testing.T) {
	tab := salesFixture(t)
	tr := telemetry.NewTrace("SelectRange")
	if _, _, err := tab.SelectRangeCtx(context.Background(), "amount", 20, 60, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Root().Find("cache") != nil {
		t.Error("cache span rendered with caching disabled")
	}
	if tr.Root().Find("admit") != nil {
		t.Error("admit span rendered with caching disabled")
	}
	ex := tr.Root().Find("execute")
	if got := ex.AttrValue("path"); got != "scan" {
		t.Errorf("execute path=%q, want scan", got)
	}
}

func TestTraceSelectInMissThenHit(t *testing.T) {
	g := workload.New(11)
	keys := g.SortedWithDuplicates(3000, 2)
	tab := NewTable("t")
	if err := tab.AddColumn("v", keys); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildIndex("v", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	tab.EnableCache(CacheOptions{MinCostNs: -1})
	values := g.Lookups(keys, 8)

	tr := telemetry.NewTrace("SelectIn")
	rids, _, err := tab.SelectInCtx(context.Background(), "v", values, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cs := tr.Root().Find("cache"); cs.AttrValue("outcome") != "miss" {
		t.Errorf("first IN cache outcome=%q, want miss", cs.AttrValue("outcome"))
	}
	ex := tr.Root().Find("execute")
	if p := ex.AttrValue("path"); p != "index-grouped" && p != "index-batch" {
		t.Errorf("execute path=%q, want index-grouped or index-batch", p)
	}
	if got := attrInt(t, ex, "rows"); got != len(rids) {
		t.Errorf("execute rows=%d, want %d", got, len(rids))
	}

	tr2 := telemetry.NewTrace("SelectIn")
	if _, _, err := tab.SelectInCtx(context.Background(), "v", values, tr2); err != nil {
		t.Fatal(err)
	}
	if cs := tr2.Root().Find("cache"); cs.AttrValue("outcome") != "hit" {
		t.Errorf("second IN cache outcome=%q, want hit", cs.AttrValue("outcome"))
	}
}

func TestTraceSelectWhereConjuncts(t *testing.T) {
	tab := salesFixture(t)
	if _, err := tab.BuildIndex("amount", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	preds := []RangePred{
		{Col: "amount", Lo: 20, Hi: 80},
		{Col: "region", Lo: 1, Hi: 2},
	}
	tr := telemetry.NewTrace("SelectWhere")
	rids, _, err := tab.SelectWhereCtx(context.Background(), preds, tr)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if got := attrInt(t, root, "conjuncts"); got != len(preds) {
		t.Errorf("root conjuncts=%d, want %d", got, len(preds))
	}
	ex := root.Find("execute")
	if ex == nil {
		t.Fatal("no execute span")
	}
	if ex.Find("conjunct") == nil {
		t.Error("execute span has no conjunct children")
	}
	is := root.Find("intersect")
	if got := attrInt(t, is, "rows"); got != len(rids) {
		t.Errorf("intersect rows=%d, want %d", got, len(rids))
	}
}

func TestTraceGroupAggregate(t *testing.T) {
	tab := salesFixture(t)
	tr := telemetry.NewTrace("GroupAggregate")
	rows, err := GroupAggregateCtx(context.Background(), tab, "region", "amount", nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	ex := tr.Root().Find("execute")
	if got := ex.AttrValue("path"); got != "domain-array" {
		t.Errorf("execute path=%q, want domain-array", got)
	}
	if got := attrInt(t, ex, "groups"); got != len(rows) {
		t.Errorf("execute groups=%d, want %d", got, len(rows))
	}
}

func TestTraceJoinMissThenHit(t *testing.T) {
	inner, outer := buildJoinTables(t, 23, 2000, 1200)
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outer.EnableCache(CacheOptions{MinCostNs: -1})

	run := func() (*telemetry.Trace, int) {
		tr := telemetry.NewTrace("Join")
		n, err := JoinWithCtx(context.Background(), outer, "k", ix, JoinOptions{}, func(o, i uint32) {}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return tr, n
	}
	tr, n := run()
	root := tr.Root()
	if cs := root.Find("cache"); cs.AttrValue("outcome") != "miss" {
		t.Errorf("first join cache outcome=%q, want miss", cs.AttrValue("outcome"))
	}
	ex := root.Find("execute")
	if got := attrInt(t, ex, "pairs"); got != n {
		t.Errorf("execute pairs=%d, want %d", got, n)
	}
	if root.Find("admit") == nil {
		t.Error("first join recorded no admit span")
	}

	tr2, n2 := run()
	cs := tr2.Root().Find("cache")
	if got := cs.AttrValue("outcome"); got != "hit" {
		t.Errorf("second join cache outcome=%q, want hit", got)
	}
	if got := attrInt(t, cs, "pairs"); got != n2 {
		t.Errorf("hit pairs=%d, want %d", got, n2)
	}
}

func TestTraceShardedRangeShardsTouched(t *testing.T) {
	g := workload.New(31)
	tab := NewTable("t")
	keys := g.SortedWithDuplicates(8000, 2)
	if err := tab.AddColumn("v", keys); err != nil {
		t.Fatal(err)
	}
	sx, err := tab.BuildShardedIndex("v", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()

	// Narrow enough that the planner commits to the index, wide enough to
	// cross at least one shard boundary.
	lo, hi := keys[len(keys)*7/16], keys[len(keys)*9/16]
	tr := telemetry.NewTrace("SelectRange")
	rids, _, err := tab.SelectRangeCtx(context.Background(), "v", lo, hi, tr)
	if err != nil {
		t.Fatal(err)
	}
	ex := tr.Root().Find("execute")
	if got := ex.AttrValue("path"); got != "sharded" {
		t.Errorf("execute path=%q, want sharded", got)
	}
	touched := attrInt(t, ex, "shards_touched")
	if touched < 1 || touched > 4 {
		t.Errorf("shards_touched=%d, want within [1,4]", touched)
	}
	if got := attrInt(t, ex, "rows"); got != len(rids) {
		t.Errorf("execute rows=%d, want %d", got, len(rids))
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// timeAttr matches a rendered span duration, the one part of an EXPLAIN
// ANALYZE tree that varies run to run.
var timeAttr = regexp.MustCompile(`\(time=[^)]*\)`)

// explainScript drives every traced query surface through a fixed sequence
// of cache and governance states and collects the EXPLAIN ANALYZE tree of
// each step under a "== name" header.  Everything is seeded by arithmetic,
// and every list is small enough to stay on one worker at any GOMAXPROCS, so
// the output is a function of the engine alone.
type explainScript struct {
	t   *testing.T
	out strings.Builder
}

func (s *explainScript) leg(name, root string, run func(ctx context.Context, tr *telemetry.Trace) error) {
	s.legCtx(name, root, context.Background(), run)
}

func (s *explainScript) legCtx(name, root string, ctx context.Context, run func(ctx context.Context, tr *telemetry.Trace) error) {
	tr := telemetry.NewTrace(root)
	err := run(ctx, tr)
	fmt.Fprintf(&s.out, "== %s\n%s", name, timeAttr.ReplaceAllString(tr.String(), "(time=X)"))
	if err != nil {
		fmt.Fprintf(&s.out, "error: %v\n", err)
	}
}

// TestExplainSurfacesGolden pins the EXPLAIN ANALYZE tree of every query
// surface — range, point, IN, WHERE, aggregate, join — on a SortedIndex
// column ("k") and a sharded-only column ("s"), through cold miss, exact
// hit, containment, an overlapping window, subset replay, a near-superset
// list, an absorbed append, cancellation at entry, a budget tripping
// mid-execute, an admission shed and the three sights of a question under
// default admission: span names, attribute keys, path
// strings and which spans are timed are all part of the contract
// `cssx explain` users read.
func TestExplainSurfacesGolden(t *testing.T) {
	const n = 2000
	cols := map[string][]uint32{"k": make([]uint32, n), "s": make([]uint32, n), "g": make([]uint32, n), "m": make([]uint32, n)}
	for i := 0; i < n; i++ {
		cols["k"][i] = uint32(i*7919) % 1000
		cols["s"][i] = uint32(i*104729) % 1000
		cols["g"][i] = uint32(i % 8)
		cols["m"][i] = uint32(i % 100)
	}
	tab := NewTable("t")
	tab.fold = neverFold
	for _, c := range []string{"k", "s", "g", "m"} {
		if err := tab.AddColumn(c, cols[c]); err != nil {
			t.Fatal(err)
		}
	}
	kIx, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sIx, err := tab.BuildShardedIndex("s", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sIx.Close()
	tab.EnableCache(CacheOptions{MinCostNs: -1})
	outer := NewTable("o")
	fk := make([]uint32, 300)
	for i := range fk {
		fk[i] = uint32(i*31) % 1200 // some miss the inner domain
	}
	if err := outer.AddColumn("fk", fk); err != nil {
		t.Fatal(err)
	}
	outer.EnableCache(CacheOptions{MinCostNs: -1})

	s := &explainScript{t: t}
	seq := func(lo, hi, step uint32) []uint32 {
		var out []uint32
		for v := lo; v <= hi; v += step {
			out = append(out, v)
		}
		return out
	}
	rangeLeg := func(col string, lo, hi uint32) func(context.Context, *telemetry.Trace) error {
		return func(ctx context.Context, tr *telemetry.Trace) error {
			_, _, err := tab.SelectRangeCtx(ctx, col, lo, hi, tr)
			return err
		}
	}
	inLeg := func(col string, vals []uint32) func(context.Context, *telemetry.Trace) error {
		return func(ctx context.Context, tr *telemetry.Trace) error {
			_, _, err := tab.SelectInCtx(ctx, col, vals, tr)
			return err
		}
	}
	whereLeg := func(preds ...RangePred) func(context.Context, *telemetry.Trace) error {
		return func(ctx context.Context, tr *telemetry.Trace) error {
			_, _, err := tab.SelectWhereCtx(ctx, preds, tr)
			return err
		}
	}
	aggLeg := func(rids []uint32) func(context.Context, *telemetry.Trace) error {
		return func(ctx context.Context, tr *telemetry.Trace) error {
			_, err := GroupAggregateCtx(ctx, tab, "g", "m", rids, tr)
			return err
		}
	}
	joinLeg := func(inner *SortedIndex, emit func(o, i uint32)) func(context.Context, *telemetry.Trace) error {
		return func(ctx context.Context, tr *telemetry.Trace) error {
			_, err := JoinWithCtx(ctx, outer, "fk", inner, JoinOptions{}, emit, tr)
			return err
		}
	}
	drop := func(o, i uint32) {}
	inners := []struct {
		name string
		ix   *SortedIndex
	}{{"k", kIx}, {"s", sIx}}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	budget := func(limit int64) context.Context {
		return governor.WithStride(governor.WithBudget(context.Background(), limit), 1)
	}
	appendBatch := func(round int) {
		b := map[string][]uint32{}
		for _, c := range []string{"k", "s", "g", "m"} {
			b[c] = make([]uint32, 40)
			for i := range b[c] {
				b[c][i] = cols[c][(round*997+i*13)%n]
			}
		}
		b["k"][0], b["s"][0] = 1000+uint32(round), 1000+uint32(round) // a value the frozen domain has never seen
		if err := tab.AppendRows(b); err != nil {
			t.Fatal(err)
		}
	}

	for _, col := range []string{"k", "s"} {
		s.leg(col+" range cold", "SelectRange", rangeLeg(col, 100, 199))
		s.leg(col+" range exact hit", "SelectRange", rangeLeg(col, 100, 199))
		s.leg(col+" range contained", "SelectRange", rangeLeg(col, 120, 150))
		s.leg(col+" range overlapping a cached run", "SelectRange", rangeLeg(col, 140, 219))
		s.leg(col+" range empty bounds", "SelectRange", rangeLeg(col, 9, 3))
		s.leg(col+" range no live value", "SelectRange", rangeLeg(col, 5000, 6000))
		s.leg(col+" point cold", "SelectRange", rangeLeg(col, 500, 500))
		s.leg(col+" point hit", "SelectRange", rangeLeg(col, 500, 500))
		s.leg(col+" range scan cold", "SelectRange", rangeLeg(col, 0, 600))
		s.leg(col+" range scan hit", "SelectRange", rangeLeg(col, 0, 600))
		s.legCtx(col+" range cancelled at entry", "SelectRange", dead, rangeLeg(col, 300, 399))
		s.legCtx(col+" range budget mid-execute", "SelectRange", budget(64), rangeLeg(col, 300, 399))
		s.legCtx(col+" range scan budget mid-execute", "SelectRange", budget(64), rangeLeg(col, 0, 700))

		s.leg(col+" in cold", "SelectIn", inLeg(col, seq(10, 100, 10)))
		s.leg(col+" in exact hit", "SelectIn", inLeg(col, seq(10, 100, 10)))
		s.leg(col+" in subset replay", "SelectIn", inLeg(col, []uint32{20, 40, 60, 20}))
		s.leg(col+" in near-superset", "SelectIn", inLeg(col, append(seq(10, 100, 10), 110)))
		s.leg(col+" in absent values", "SelectIn", inLeg(col, []uint32{5000, 6000}))
		s.leg(col+" in scan cold", "SelectIn", inLeg(col, seq(0, 999, 2)))
		s.leg(col+" in scan hit", "SelectIn", inLeg(col, seq(0, 999, 2)))
		s.legCtx(col+" in cancelled at entry", "SelectIn", dead, inLeg(col, seq(200, 290, 10)))
		s.legCtx(col+" in budget mid-execute", "SelectIn", budget(16), inLeg(col, seq(200, 290, 10)))
		s.legCtx(col+" in scan budget mid-execute", "SelectIn", budget(64), inLeg(col, seq(1, 999, 2)))
	}

	kPred := func(lo, hi uint32) RangePred { return RangePred{Col: "k", Lo: lo, Hi: hi} }
	sPred := func(lo, hi uint32) RangePred { return RangePred{Col: "s", Lo: lo, Hi: hi} }
	gPred := RangePred{Col: "g", Lo: 2, Hi: 5}
	s.leg("where cold: batched index, sharded, scan", "SelectWhere", whereLeg(kPred(600, 699), sPred(400, 520), gPred))
	s.leg("where exact hit", "SelectWhere", whereLeg(kPred(600, 699), sPred(400, 520), gPred))
	s.leg("where conjuncts hit, contained, overlapping", "SelectWhere", whereLeg(kPred(600, 699), kPred(620, 640), kPred(650, 730), sPred(410, 500), sPred(450, 560)))
	s.leg("where two batched conjuncts on one index", "SelectWhere", whereLeg(kPred(800, 850), kPred(820, 899)))
	s.leg("where empty conjunct", "SelectWhere", whereLeg(kPred(7, 3), gPred))
	s.leg("where unknown column", "SelectWhere", whereLeg(RangePred{Col: "nope", Lo: 1, Hi: 2}))
	s.legCtx("where cancelled at entry", "SelectWhere", dead, whereLeg(kPred(10, 60), gPred))
	s.legCtx("where budget mid-execute: batched index", "SelectWhere", budget(64), whereLeg(kPred(10, 60), kPred(30, 90)))
	s.legCtx("where budget mid-execute: sharded", "SelectWhere", budget(64), whereLeg(sPred(10, 60), kPred(30, 90)))
	s.legCtx("where budget mid-execute: scan", "SelectWhere", budget(64), whereLeg(RangePred{Col: "m", Lo: 0, Hi: 90}))

	first := seq(0, 400, 3)
	s.leg("agg all rows cold", "GroupAggregate", aggLeg(nil))
	s.leg("agg all rows hit", "GroupAggregate", aggLeg(nil))
	s.leg("agg rid list cold", "GroupAggregate", aggLeg(first))
	s.leg("agg rid list hit", "GroupAggregate", aggLeg(first))
	s.legCtx("agg cancelled at entry", "GroupAggregate", dead, aggLeg(seq(0, 300, 2)))
	s.legCtx("agg budget at accumulators", "GroupAggregate", budget(64), aggLeg(seq(0, 300, 2)))

	for _, in := range inners {
		s.leg(in.name+" join count-only cold", "Join", joinLeg(in.ix, nil))
		s.leg(in.name+" join emit cold", "Join", joinLeg(in.ix, drop))
		s.leg(in.name+" join emit hit", "Join", joinLeg(in.ix, drop))
		s.leg(in.name+" join count-only hit", "Join", joinLeg(in.ix, nil))
		s.legCtx(in.name+" join cancelled at entry", "Join", dead, joinLeg(in.ix, drop))
	}

	// Caching off: the ungrouped IN drivers and the uncached range, WHERE,
	// aggregate and join shapes, over the folded base.
	uncached := func(tag string) {
		qc := tab.Cache()
		tab.cache.Store(nil)
		for _, col := range []string{"k", "s"} {
			s.leg(col+" range uncached"+tag, "SelectRange", rangeLeg(col, 100, 199))
			s.leg(col+" in uncached"+tag, "SelectIn", inLeg(col, seq(10, 100, 10)))
			s.legCtx(col+" in uncached budget mid-execute"+tag, "SelectIn", budget(16), inLeg(col, seq(10, 100, 10)))
		}
		s.leg("where uncached"+tag, "SelectWhere", whereLeg(kPred(600, 699), sPred(400, 520), gPred))
		s.leg("agg uncached"+tag, "GroupAggregate", aggLeg(nil))
		tab.cache.Store(qc)
	}
	uncached("")

	appendBatch(1)
	uncached(" over one run")
	for _, col := range []string{"k", "s"} {
		s.leg(col+" range patched hit after absorb", "SelectRange", rangeLeg(col, 100, 199))
		s.leg(col+" range cold over one run", "SelectRange", rangeLeg(col, 850, 1001))
		s.leg(col+" range overlapping a cached run over one run", "SelectRange", rangeLeg(col, 900, 1010))
		s.leg(col+" range beyond the frozen domain", "SelectRange", rangeLeg(col, 1001, 1001))
		s.leg(col+" in patched hit after absorb", "SelectIn", inLeg(col, seq(10, 100, 10)))
		s.leg(col+" in cold over one run", "SelectIn", inLeg(col, append(seq(15, 95, 10), 1001)))
		s.leg(col+" in near-superset over one run", "SelectIn", inLeg(col, append(seq(15, 95, 10), 1001, 105)))
		s.legCtx(col+" in budget mid-execute over one run", "SelectIn", budget(16), inLeg(col, seq(205, 295, 10)))
	}
	s.leg("where after absorb: merged index, sharded, scan", "SelectWhere", whereLeg(kPred(700, 780), sPred(300, 380), gPred))
	s.leg("where conjunct overlapping a cached run over one run", "SelectWhere", whereLeg(kPred(720, 830), gPred))
	s.legCtx("where budget mid-execute: merged index", "SelectWhere", budget(64), whereLeg(kPred(20, 90), gPred))
	s.leg("agg all rows patched hit after absorb", "GroupAggregate", aggLeg(nil))
	s.leg("agg rid list cold after absorb", "GroupAggregate", aggLeg(seq(1900, 2030, 1)))
	for _, in := range inners {
		s.leg(in.name+" join emit cold after inner absorb", "Join", joinLeg(in.ix, drop))
		outer.Cache().DropTable("o")
		s.legCtx(in.name+" join budget on pair buffers", "Join", budget(32), joinLeg(in.ix, nil))
	}

	// Admission shed: the gate is saturated, so cache-missing work is
	// refused while a cached answer is still served.
	gov := governor.NewAdmission(governor.Options{MaxConcurrent: 1, MaxQueue: 0})
	tab.AttachGovernor(gov)
	outer.AttachGovernor(gov)
	grant, err := gov.Acquire(context.Background(), governor.ClassSelect, 0)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	for _, col := range []string{"k", "s"} {
		s.legCtx(col+" range shed", "SelectRange", live, rangeLeg(col, 40, 70))
		s.legCtx(col+" range hit while saturated", "SelectRange", live, rangeLeg(col, 100, 199))
		s.legCtx(col+" in shed", "SelectIn", live, inLeg(col, seq(3, 93, 10)))
	}
	s.legCtx("where shed", "SelectWhere", live, whereLeg(kPred(40, 70), gPred))
	s.legCtx("agg shed", "GroupAggregate", live, aggLeg(seq(0, 100, 1)))
	outer.Cache().DropTable("o")
	s.legCtx("join shed", "Join", live, joinLeg(kIx, drop))
	stop()
	grant.Release()
	tab.AttachGovernor(nil)
	outer.AttachGovernor(nil)

	// Reuse under a budget smaller than the result: a replayed subset is a
	// freshly materialised answer and is charged like a computed one; an
	// overlapping window or a near-superset list is a miss whose execute
	// stage trips the budget.
	for _, col := range []string{"k", "s"} {
		s.leg(col+" range seed for budgeted stitch", "SelectRange", rangeLeg(col, 240, 299))
		s.legCtx(col+" range overlapping a cached run over budget", "SelectRange", budget(64), rangeLeg(col, 260, 320))
		s.leg(col+" in seed for budgeted reuse", "SelectIn", inLeg(col, seq(302, 392, 10)))
		s.legCtx(col+" in subset replay over budget", "SelectIn", budget(8), inLeg(col, []uint32{312, 332}))
		s.legCtx(col+" in near-superset over budget", "SelectIn", budget(16), inLeg(col, append(seq(302, 392, 10), 402)))
	}
	s.leg("where seed for budgeted conjunct stitch", "SelectRange", rangeLeg("k", 440, 499))
	s.legCtx("where conjunct overlapping a cached run over budget", "SelectWhere", budget(64), whereLeg(kPred(460, 520), gPred))

	// Default admission (every leg above admits at first sight): a question's
	// first miss says so and has no admit stage, its second is admitted, its
	// third is a hit.  (The range is wide enough that the cost model alone
	// prices it above the 1µs floor, whatever the clock measured.)
	tab.EnableCache(CacheOptions{})
	for _, sight := range []string{"first sight deferred", "second sight admitted", "third sight hit"} {
		s.leg("k range default admission: "+sight, "SelectRange", rangeLeg("k", 100, 289))
	}

	got := s.out.String()
	golden := filepath.Join("testdata", "explain_surfaces.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN trees differ from %s (run with -update after reviewing):\n%s", golden, firstDiff(got, string(want)))
	}
}

// firstDiff reports the first differing line of two texts with its section
// header, which is enough to find the leg that moved.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	section := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if strings.HasPrefix(g[i], "== ") {
			section = g[i]
		}
		if g[i] != w[i] {
			return fmt.Sprintf("%s\nline %d\n got: %s\nwant: %s", section, i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
