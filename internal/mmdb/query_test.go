package mmdb

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cssidx"
	"cssidx/internal/telemetry"
	"cssidx/internal/workload"
)

// salesFixture: region (3 groups) and amount columns over 9 rows.
func salesFixture(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("sales")
	if err := tab.AddColumn("region", []uint32{1, 2, 3, 1, 2, 3, 1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("amount", []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90}); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestGroupAggregateAllRows(t *testing.T) {
	tab := salesFixture(t)
	rows, err := GroupAggregate(tab, "region", "amount", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups=%d, want 3", len(rows))
	}
	// Region 1: rows 0,3,6,7 → amounts 10,40,70,80.
	r1 := rows[0]
	if r1.Value != 1 || r1.Count != 4 || r1.Sum != 200 || r1.Min != 10 || r1.Max != 80 {
		t.Errorf("region 1 aggregate wrong: %+v", r1)
	}
	// Region 2: 20,50,90.
	r2 := rows[1]
	if r2.Value != 2 || r2.Count != 3 || r2.Sum != 160 || r2.Min != 20 || r2.Max != 90 {
		t.Errorf("region 2 aggregate wrong: %+v", r2)
	}
	// Groups come back in value order.
	if !(rows[0].Value < rows[1].Value && rows[1].Value < rows[2].Value) {
		t.Error("groups not in value order")
	}
}

func TestGroupAggregateFilteredByRIDs(t *testing.T) {
	tab := salesFixture(t)
	// Only rows 0..2.
	rows, err := GroupAggregate(tab, "region", "amount", []uint32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups=%d", len(rows))
	}
	for _, r := range rows {
		if r.Count != 1 {
			t.Errorf("group %d count=%d, want 1", r.Value, r.Count)
		}
	}
}

func TestGroupAggregateComposesWithRangeSelect(t *testing.T) {
	tab := salesFixture(t)
	if _, err := tab.BuildIndex("amount", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	ix, _ := tab.Index("amount")
	rids, err := ix.SelectRange(30, 70)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := GroupAggregate(tab, "region", "amount", rids)
	if err != nil {
		t.Fatal(err)
	}
	// Amounts 30..70 → rows 2(30,r3) 3(40,r1) 4(50,r2) 5(60,r3) 6(70,r1).
	total := int64(0)
	for _, r := range rows {
		total += r.Count
	}
	if total != 5 {
		t.Errorf("filtered aggregate covers %d rows, want 5", total)
	}
}

func TestGroupAggregateErrors(t *testing.T) {
	tab := salesFixture(t)
	if _, err := GroupAggregate(tab, "nope", "amount", nil); err == nil {
		t.Error("missing group column accepted")
	}
	if _, err := GroupAggregate(tab, "region", "nope", nil); err == nil {
		t.Error("missing measure column accepted")
	}
}

func TestPlanRangePrefersIndexWhenSelective(t *testing.T) {
	g := workload.New(160)
	vals := g.Shuffled(g.SortedDistinct(50000))
	tab := NewTable("t")
	if err := tab.AddColumn("v", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildIndex("v", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	// Narrow predicate → index.
	sorted := append([]uint32(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	plan, err := tab.PlanRange("v", sorted[100], sorted[200])
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UseIndex {
		t.Errorf("narrow range should use index: %+v", plan)
	}
	// Wide predicate → scan.
	plan, err = tab.PlanRange("v", sorted[0], sorted[40000])
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseIndex {
		t.Errorf("wide range should scan: %+v", plan)
	}
	if plan.EstRows < 30000 {
		t.Errorf("estimate %d implausibly low for 80%% selectivity", plan.EstRows)
	}
}

func TestPlanRangeNoIndexFallsBackToScan(t *testing.T) {
	tab := salesFixture(t)
	plan, err := tab.PlanRange("amount", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseIndex {
		t.Error("plan used a non-existent index")
	}
	rids, plan2, err := tab.SelectRange("amount", 30, 70)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.UseIndex {
		t.Error("select used a non-existent index")
	}
	if len(rids) != 5 {
		t.Errorf("scan found %d rows, want 5", len(rids))
	}
}

func TestSelectWhereConjunction(t *testing.T) {
	g := workload.New(162)
	n := 20000
	a := g.Shuffled(g.SortedWithDuplicates(n, 3))
	b := g.Shuffled(g.SortedWithDuplicates(n, 3))
	tab := NewTable("t")
	if err := tab.AddColumn("a", a); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("b", b); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildIndex("a", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	// No index on b: forces a mixed index+scan conjunction.
	sa := append([]uint32(nil), a...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sb := append([]uint32(nil), b...)
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })

	preds := []RangePred{
		{Col: "a", Lo: sa[100], Hi: sa[900]},
		{Col: "b", Lo: sb[0], Hi: sb[15000]},
	}
	got, plans, err := tab.SelectWhere(preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans=%v", plans)
	}
	var want []uint32
	for row := 0; row < n; row++ {
		if a[row] >= preds[0].Lo && a[row] <= preds[0].Hi &&
			b[row] >= preds[1].Lo && b[row] <= preds[1].Hi {
			want = append(want, uint32(row))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("conjunction found %d rows, scan found %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rid sets diverge at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestSelectWhereEmptyAndErrors(t *testing.T) {
	tab := salesFixture(t)
	if _, _, err := tab.SelectWhere(nil); err == nil {
		t.Error("empty predicate list accepted")
	}
	if _, _, err := tab.SelectWhere([]RangePred{{Col: "nope", Lo: 0, Hi: 1}}); err == nil {
		t.Error("unknown column accepted")
	}
	// Disjoint conjuncts → empty result, no error.
	got, _, err := tab.SelectWhere([]RangePred{
		{Col: "amount", Lo: 10, Hi: 10},
		{Col: "amount", Lo: 99, Hi: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("disjoint conjunction returned %v", got)
	}
}

func TestPlanRangeHashIndexScans(t *testing.T) {
	tab := salesFixture(t)
	if _, err := tab.BuildIndex("amount", cssidx.KindHash, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := tab.PlanRange("amount", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseIndex {
		t.Errorf("hash index chosen for a range predicate: %+v", plan)
	}
	rids, _, err := tab.SelectRange("amount", 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 3 {
		t.Errorf("scan fallback found %d rows, want 3", len(rids))
	}
}

// TestPlanWhyText pins the planner's reasons byte for byte against the fmt
// verbs they were first written with: the text is built without fmt on every
// planned query, and EXPLAIN readers (and the golden trees) see it.
func TestPlanWhyText(t *testing.T) {
	const n = 1000
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	tab := NewTable("t")
	for _, c := range []string{"plain", "hashed", "sorted", "sharded"} {
		if err := tab.AddColumn(c, vals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.BuildIndex("hashed", cssidx.KindHash, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildIndex("sorted", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	six, err := tab.BuildShardedIndex("sharded", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer six.Close()
	for _, c := range []struct {
		col    string
		lo, hi uint32
		want   string
	}{
		{"plain", 0, 10, "no index on column"},
		{"hashed", 0, 10, "hash index has no ordered access"},
		{"sorted", 0, 334, fmt.Sprintf("selectivity %.0f%% above scan break-even", 33.5)},
		{"sorted", 0, 995, fmt.Sprintf("selectivity %.0f%% above scan break-even", 99.6)},
		{"sharded", 10, 21, fmt.Sprintf("selectivity %.1f%% below scan break-even", 1.2)},
		{"sorted", 10, 21, fmt.Sprintf("selectivity %.1f%% below scan break-even", 1.2)},
		{"sorted", 7, 7, fmt.Sprintf("selectivity %.1f%% below scan break-even", 0.1)},
		{"sorted", 5000, 6000, fmt.Sprintf("selectivity %.1f%% below scan break-even", 0.0)},
	} {
		p, err := tab.PlanRange(c.col, c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if p.Why != c.want {
			t.Errorf("PlanRange(%s, %d, %d): %q, want %q", c.col, c.lo, c.hi, p.Why, c.want)
		}
	}
	for _, c := range []struct {
		col  string
		k    int
		want string
	}{
		{"plain", 3, "no index on column"},
		{"hashed", 400, fmt.Sprintf("selectivity %.0f%% above batched scan break-even", 40.0)},
		{"hashed", 125, fmt.Sprintf("batched IN probe, selectivity %.1f%% below batched break-even", 12.5)},
		{"sharded", 3, fmt.Sprintf("batched IN probe, selectivity %.1f%% below batched break-even", 0.3)},
	} {
		p, err := tab.PlanIn(c.col, vals[:c.k])
		if err != nil {
			t.Fatal(err)
		}
		if p.Why != c.want {
			t.Errorf("PlanIn(%s, %d values): %q, want %q", c.col, c.k, p.Why, c.want)
		}
	}
}

// entryForms runs one query through its three entry forms — plain, *Ctx with
// a background context, *Ctx with a trace — each against its own identically
// built and identically driven table, so cached order cannot leak between
// forms.
type entryForms struct {
	tabs  [3]*Table // plain, ctx, traced
	outer [3]*Table
	g     *workload.Gen
	base  []uint32
}

func newEntryForms(t *testing.T, seed int64) *entryForms {
	t.Helper()
	f := &entryForms{g: workload.New(seed)}
	f.base = f.g.SortedUniform(1500)
	cols := map[string][]uint32{}
	for _, c := range []string{"k", "s", "m"} {
		cols[c] = f.g.Lookups(f.base, 3000)
	}
	fk := append(f.g.Lookups(f.base, 600), f.g.Misses(f.base, 200)...)
	for i := range f.tabs {
		tab := NewTable("t")
		tab.fold = foldPolicy{minRows: 300}
		for _, c := range []string{"k", "s", "m"} {
			if err := tab.AddColumn(c, cols[c]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tab.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
			t.Fatal(err)
		}
		sh, err := tab.BuildShardedIndex("s", 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		tab.EnableCache(CacheOptions{MinCostNs: -1})
		f.tabs[i] = tab
		f.outer[i] = NewTable("o")
		if err := f.outer[i].AddColumn("fk", fk); err != nil {
			t.Fatal(err)
		}
		f.outer[i].EnableCache(CacheOptions{MinCostNs: -1})
	}
	return f
}

func (f *entryForms) append(t *testing.T, rows int) {
	t.Helper()
	batch := map[string][]uint32{}
	for _, c := range []string{"k", "s", "m"} {
		batch[c] = append(f.g.Lookups(f.base, rows-1), f.g.Misses(f.base, 1)...)
	}
	for _, tab := range f.tabs {
		if err := tab.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// check runs every surface in all three forms and demands identical rows in
// identical order.
func (f *entryForms) check(t *testing.T, tag string) {
	t.Helper()
	bg := context.Background()
	same := func(what string, plain, ctx, traced []uint32) {
		t.Helper()
		mustEqualU32(t, tag+" "+what+" ctx", ctx, plain)
		mustEqualU32(t, tag+" "+what+" traced", traced, plain)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := f.base[200], f.base[330]
	list := append(f.g.Lookups(f.base, 12), f.g.Misses(f.base, 2)...)
	for _, col := range []string{"k", "s"} {
		for pass := 0; pass < 2; pass++ { // miss, then hit
			p, _, err := f.tabs[0].SelectRange(col, lo, hi)
			must(err)
			c, _, err := f.tabs[1].SelectRangeCtx(bg, col, lo, hi, nil)
			must(err)
			tr, _, err := f.tabs[2].SelectRangeCtx(bg, col, lo, hi, telemetry.NewTrace("SelectRange"))
			must(err)
			same(col+" SelectRange", p, c, tr)

			p, _, err = f.tabs[0].SelectIn(col, list)
			must(err)
			c, _, err = f.tabs[1].SelectInCtx(bg, col, list, nil)
			must(err)
			tr, _, err = f.tabs[2].SelectInCtx(bg, col, list, telemetry.NewTrace("SelectIn"))
			must(err)
			same(col+" SelectIn", p, c, tr)
		}
	}
	preds := []RangePred{{Col: "k", Lo: f.base[100], Hi: f.base[400]}, {Col: "s", Lo: f.base[50], Hi: f.base[500]}, {Col: "m", Lo: 0, Hi: f.base[1200]}}
	p, _, err := f.tabs[0].SelectWhere(preds)
	must(err)
	c, _, err := f.tabs[1].SelectWhereCtx(bg, preds, nil)
	must(err)
	tr, _, err := f.tabs[2].SelectWhereCtx(bg, preds, telemetry.NewTrace("SelectWhere"))
	must(err)
	same("SelectWhere", p, c, tr)

	ap, err := GroupAggregate(f.tabs[0], "k", "m", p)
	must(err)
	ac, err := GroupAggregateCtx(bg, f.tabs[1], "k", "m", c, nil)
	must(err)
	at, err := GroupAggregateCtx(bg, f.tabs[2], "k", "m", tr, telemetry.NewTrace("GroupAggregate"))
	must(err)
	if !reflect.DeepEqual(ap, ac) || !reflect.DeepEqual(ap, at) {
		t.Fatalf("%s GroupAggregate forms disagree", tag)
	}

	for _, inner := range []string{"k", "s"} {
		var pairs [3][]uint32
		for i := range f.tabs {
			var ix *SortedIndex
			if six, ok := f.tabs[i].ShardedIndex(inner); ok {
				ix = six
			} else {
				ix, _ = f.tabs[i].Index(inner)
			}
			emit := func(o, in uint32) { pairs[i] = append(pairs[i], o, in) }
			switch i {
			case 0:
				_, err = JoinWith(f.outer[i], "fk", ix, JoinOptions{}, emit)
			case 1:
				_, err = JoinWithCtx(bg, f.outer[i], "fk", ix, JoinOptions{}, emit, nil)
			default:
				_, err = JoinWithCtx(bg, f.outer[i], "fk", ix, JoinOptions{}, emit, telemetry.NewTrace("Join"))
			}
			must(err)
		}
		same(inner+" JoinWith", pairs[0], pairs[1], pairs[2])
	}
}

// TestEntryFormsAgree: the plain surface IS the *Ctx surface with a
// background context and no trace, so all three forms must return identical
// rows in identical order — on the SortedIndex column and the sharded-only
// column, over the folded base, across absorbs, and after a fold.
func TestEntryFormsAgree(t *testing.T) {
	f := newEntryForms(t, 97)
	f.check(t, "base")
	f.append(t, 40)
	f.check(t, "one run")
	f.append(t, 60)
	f.check(t, "two runs")
	if f.tabs[0].DeltaRows() == 0 {
		t.Fatal("appends folded before the absorbed legs ran")
	}
	f.append(t, 600)
	if f.tabs[0].DeltaRows() != 0 {
		t.Fatal("large append did not fold")
	}
	f.check(t, "folded")
}
