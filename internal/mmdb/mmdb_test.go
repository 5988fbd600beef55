package mmdb

import (
	"slices"
	"testing"

	"cssidx"
	"cssidx/internal/workload"
)

// fixture builds a small orders table: amount (with duplicates), customer.
func fixture(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("orders")
	if err := tab.AddColumn("amount", []uint32{50, 10, 30, 10, 99, 30, 30}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("customer", []uint32{1, 2, 3, 1, 2, 3, 1}); err != nil {
		t.Fatal(err)
	}
	return tab
}

// distinctValues returns the column's distinct values, ascending: what tests
// draw probes and IN-lists from.
func distinctValues(c *Column) []uint32 {
	return slices.Compact(slices.Sorted(slices.Values(c.raw)))
}

func TestAddColumnValidation(t *testing.T) {
	tab := NewTable("t")
	if err := tab.AddColumn("a", []uint32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("a", []uint32{1, 2}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tab.AddColumn("b", []uint32{1}); err == nil {
		t.Error("row-count mismatch accepted")
	}
	if tab.Rows() != 2 || len(tab.Columns()) != 1 {
		t.Errorf("rows=%d cols=%v", tab.Rows(), tab.Columns())
	}
}

func TestRangeBoundsBetweenValues(t *testing.T) {
	tab := fixture(t)
	ix, _ := tab.BuildIndex("amount", cssidx.KindLevelCSS, cssidx.Options{})
	// Bounds that fall between stored values.
	rids, err := ix.SelectRange(11, 98)
	if err != nil {
		t.Fatal(err)
	}
	// 30,30,30,50 → 4 rows.
	if len(rids) != 4 {
		t.Errorf("SelectRange(11,98)=%v, want 4 rids", rids)
	}
	if rids, _ := ix.SelectRange(100, 200); len(rids) != 0 {
		t.Errorf("empty range selected %v", rids)
	}
	if rids, _ := ix.SelectRange(0, 9); len(rids) != 0 {
		t.Errorf("below-min range selected %v", rids)
	}
}

func TestRIDsAreOrderedByValue(t *testing.T) {
	g := workload.New(120)
	vals := g.Shuffled(g.SortedWithDuplicates(5000, 3))
	tab := NewTable("t")
	if err := tab.AddColumn("v", vals); err != nil {
		t.Fatal(err)
	}
	ix, _ := tab.BuildIndex("v", cssidx.KindFullCSS, cssidx.Options{})
	rids := ix.RIDs()
	col, _ := tab.Column("v")
	for i := 1; i < len(rids); i++ {
		if col.Value(int(rids[i-1])) > col.Value(int(rids[i])) {
			t.Fatalf("RID list not value-ordered at %d", i)
		}
	}
}

func TestIndexedNestedLoopJoin(t *testing.T) {
	orders := fixture(t)
	cust := NewTable("customers")
	if err := cust.AddColumn("id", []uint32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	idIx, err := cust.BuildIndex("id", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]uint32
	n, err := JoinWith(orders, "customer", idIx, JoinOptions{}, func(o, i uint32) {
		pairs = append(pairs, [2]uint32{o, i})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every order row matches exactly one customer.
	if n != orders.Rows() || len(pairs) != n {
		t.Fatalf("join produced %d pairs, want %d", n, orders.Rows())
	}
	custCol, _ := orders.Column("customer")
	idCol, _ := cust.Column("id")
	for _, p := range pairs {
		if custCol.Value(int(p[0])) != idCol.Value(int(p[1])) {
			t.Errorf("pair %v joins mismatched values", p)
		}
	}
}

func TestJoinWithDuplicateInnerKeys(t *testing.T) {
	outer := NewTable("o")
	if err := outer.AddColumn("k", []uint32{7, 8}); err != nil {
		t.Fatal(err)
	}
	inner := NewTable("i")
	if err := inner.AddColumn("k", []uint32{7, 7, 7, 9}); err != nil {
		t.Fatal(err)
	}
	ix, _ := inner.BuildIndex("k", cssidx.KindBPlusTree, cssidx.Options{})
	n, err := JoinWith(outer, "k", ix, JoinOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("join count=%d, want 3 (7 matches three inner rows, 8 none)", n)
	}
}

func TestJoinMissingColumn(t *testing.T) {
	outer := NewTable("o")
	if err := outer.AddColumn("k", []uint32{1}); err != nil {
		t.Fatal(err)
	}
	inner := NewTable("i")
	if err := inner.AddColumn("k", []uint32{1}); err != nil {
		t.Fatal(err)
	}
	ix, _ := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if _, err := JoinWith(outer, "nope", ix, JoinOptions{}, nil); err == nil {
		t.Error("missing column accepted")
	}
}

func TestBatchUpdateRebuildsIndexes(t *testing.T) {
	tab := fixture(t)
	ix, _ := tab.BuildIndex("amount", cssidx.KindLevelCSS, cssidx.Options{})
	if before, _ := ix.SelectRange(0, 1000); len(before) != 7 {
		t.Fatalf("precondition: %d rows", len(before))
	}
	err := tab.AppendRows(map[string][]uint32{
		"amount":   {20, 75},
		"customer": {4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 9 {
		t.Fatalf("rows=%d", tab.Rows())
	}
	// The registered index must reflect the new rows without being rebuilt
	// by hand.
	if after, _ := ix.SelectRange(0, 1000); len(after) != 9 {
		t.Errorf("after batch: %d rows, want 9", len(after))
	}
	rids := ix.SelectEqual(20)
	if len(rids) != 1 || rids[0] != 7 {
		t.Errorf("SelectEqual(20)=%v, want [7]", rids)
	}
	// Domain renumbering must keep value order: range query spanning old and
	// new values.
	got, _ := ix.SelectRange(20, 50)
	wantCount := 0
	col, _ := tab.Column("amount")
	for r := 0; r < tab.Rows(); r++ {
		if v := col.Value(r); v >= 20 && v <= 50 {
			wantCount++
		}
	}
	if len(got) != wantCount {
		t.Errorf("range after batch: %d rids, want %d", len(got), wantCount)
	}
}

func TestBatchUpdateValidation(t *testing.T) {
	tab := fixture(t)
	if err := tab.AppendRows(map[string][]uint32{"amount": {1}}); err == nil {
		t.Error("batch missing a column accepted")
	}
	if err := tab.AppendRows(map[string][]uint32{
		"amount":   {1, 2},
		"customer": {1},
	}); err == nil {
		t.Error("ragged batch accepted")
	}
	if err := NewTable("empty").AppendRows(nil); err == nil {
		t.Error("append to empty table accepted")
	}
}

func TestIndexRegistryAndSpace(t *testing.T) {
	tab := fixture(t)
	if _, ok := tab.Index("amount"); ok {
		t.Error("index exists before build")
	}
	ix, _ := tab.BuildIndex("amount", cssidx.KindLevelCSS, cssidx.Options{})
	got, ok := tab.Index("amount")
	if !ok || got != ix {
		t.Error("index not registered")
	}
	if ix.SpaceBytes() < 8*tab.Rows() {
		t.Errorf("space=%d below RID+key floor", ix.SpaceBytes())
	}
	if ix.Kind() != cssidx.KindLevelCSS {
		t.Error("kind lost")
	}
	if _, err := tab.BuildIndex("nope", cssidx.KindLevelCSS, cssidx.Options{}); err == nil {
		t.Error("index on missing column accepted")
	}
}
