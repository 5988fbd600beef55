package mmdb

// Tests for the batched probe paths: JoinWith vs a nested-loop reference at
// several chunk sizes and index methods, SelectIn (sorted and sharded) vs
// first principles, and IN-list access-path selection.

import (
	"sort"
	"testing"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// referenceJoin computes the §2.2 join by definition: per outer row, scan the
// whole inner column.
func referenceJoin(outer, inner *Table, col string) [][2]uint32 {
	oc := outer.cols[col]
	ic := inner.cols[col]
	var pairs [][2]uint32
	for r, v := range oc.raw {
		for ir, iv := range ic.raw {
			if iv == v {
				pairs = append(pairs, [2]uint32{uint32(r), uint32(ir)})
			}
		}
	}
	return pairs
}

func joinTables(t *testing.T, n, outerRows int, seed int64) (*Table, *Table) {
	t.Helper()
	g := workload.New(seed)
	innerKeys := g.SortedWithDuplicates(n, 2)
	outerVals := append(g.Lookups(innerKeys, outerRows), g.Misses(innerKeys, outerRows/4)...)
	inner := NewTable("inner")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		t.Fatal(err)
	}
	outer := NewTable("outer")
	if err := outer.AddColumn("k", outerVals); err != nil {
		t.Fatal(err)
	}
	return outer, inner
}

// TestJoinBatchMatchesReference checks every method and several chunk sizes
// produce the reference pair multiset in the reference order.
func TestJoinBatchMatchesReference(t *testing.T) {
	outer, inner := joinTables(t, 600, 400, 51)
	want := referenceJoin(outer, inner, "k")
	for _, kind := range []cssidx.Kind{
		cssidx.KindLevelCSS, cssidx.KindFullCSS, cssidx.KindBPlusTree, cssidx.KindHash, cssidx.KindBinarySearch,
	} {
		ix, err := inner.BuildIndex("k", kind, cssidx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{0, 1, 7, 64, 100000} {
			var got [][2]uint32
			count, err := JoinWith(outer, "k", ix, JoinOptions{batch: batch}, func(o, i uint32) {
				got = append(got, [2]uint32{o, i})
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != len(want) || len(got) != len(want) {
				t.Fatalf("%s batch=%d: count=%d pairs=%d, want %d", kind, batch, count, len(got), len(want))
			}
			// The inner side of a pair is a RID; the reference enumerates inner
			// rows in row order while the index enumerates duplicates in sorted-
			// list order.  Compare per-outer-row RID sets.
			byOuterGot := map[uint32][]uint32{}
			byOuterWant := map[uint32][]uint32{}
			for _, p := range got {
				byOuterGot[p[0]] = append(byOuterGot[p[0]], p[1])
			}
			for _, p := range want {
				byOuterWant[p[0]] = append(byOuterWant[p[0]], p[1])
			}
			for o, w := range byOuterWant {
				gotRids := append([]uint32(nil), byOuterGot[o]...)
				sort.Slice(gotRids, func(a, b int) bool { return gotRids[a] < gotRids[b] })
				sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
				if len(gotRids) != len(w) {
					t.Fatalf("%s batch=%d: outer %d has %d matches, want %d", kind, batch, o, len(gotRids), len(w))
				}
				for i := range w {
					if gotRids[i] != w[i] {
						t.Fatalf("%s batch=%d: outer %d rid[%d]=%d, want %d", kind, batch, o, i, gotRids[i], w[i])
					}
				}
			}
		}
	}
}

// TestJoinBatchSizesAgree pins the batched schedules to the scalar (batch=1)
// schedule exactly — identical pair sequence, not just identical sets.
func TestJoinBatchSizesAgree(t *testing.T) {
	outer, inner := joinTables(t, 2000, 1500, 52)
	ix, err := inner.BuildIndex("k", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var scalar [][2]uint32
	if _, err := JoinWith(outer, "k", ix, JoinOptions{batch: 1}, func(o, i uint32) {
		scalar = append(scalar, [2]uint32{o, i})
	}); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{8, 64, 512} {
		var got [][2]uint32
		if _, err := JoinWith(outer, "k", ix, JoinOptions{batch: batch}, func(o, i uint32) {
			got = append(got, [2]uint32{o, i})
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(scalar) {
			t.Fatalf("batch=%d: %d pairs, scalar %d", batch, len(got), len(scalar))
		}
		for i := range scalar {
			if got[i] != scalar[i] {
				t.Fatalf("batch=%d: pair[%d]=%v, scalar %v", batch, i, got[i], scalar[i])
			}
		}
	}
}

// indexIn runs segment.selectIn, the batched IN probe, over ix's current
// epoch, uncached and ungoverned: the rows of each distinct value in list
// order, ascending within a value.  An index has no IN method of its own;
// tests that race folds or compare structures probe through here.
func indexIn(ix *SortedIndex, list []uint32) []uint32 {
	out, _, _ := ix.cur.Load().selectIn(nil, dedupeValues(list), false, parallel.Options{})
	return out
}

// TestSelectIn checks the batched IN-list against SelectEqual composition on
// both the sorted and the sharded index.
func TestSelectIn(t *testing.T) {
	tab := NewTable("t")
	vals := []uint32{50, 10, 30, 10, 99, 30, 30, 77}
	if err := tab.AddColumn("v", vals); err != nil {
		t.Fatal(err)
	}
	ix, err := tab.BuildIndex("v", cssidx.KindLevelCSS, cssidx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := tab.BuildShardedIndex("v", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	lists := [][]uint32{
		nil,
		{11},            // absent
		{10},            // present
		{30, 10, 30},    // duplicates in the list
		{99, 11, 50, 0}, // mixed
		{10, 30, 50, 77, 99},
	}
	for _, list := range lists {
		var want []uint32
		for _, v := range dedupeValues(list) {
			want = append(want, ix.SelectEqual(v)...)
		}
		for name, got := range map[string][]uint32{
			"sorted":  indexIn(ix, list),
			"sharded": indexIn(sh, list),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s SelectIn(%v)=%v, want %v", name, list, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s SelectIn(%v)[%d]=%d, want %d", name, list, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanInBreakEven checks IN-list planning: small lists probe the index
// (batched break-even), huge lists scan, unindexed columns scan.
func TestPlanInBreakEven(t *testing.T) {
	g := workload.New(53)
	keys := g.SortedDistinct(1000)
	tab := NewTable("t")
	if err := tab.AddColumn("v", keys); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("plain", keys); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildIndex("v", cssidx.KindLevelCSS, cssidx.Options{}); err != nil {
		t.Fatal(err)
	}
	small, err := tab.PlanIn("v", keys[:10])
	if err != nil || !small.UseIndex {
		t.Fatalf("small IN-list should probe the index: %+v err=%v", small, err)
	}
	big, err := tab.PlanIn("v", keys[:900])
	if err != nil || big.UseIndex {
		t.Fatalf("90%% IN-list should scan: %+v err=%v", big, err)
	}
	// Between the scalar and the batched break-even the batch still probes.
	mid, err := tab.PlanIn("v", keys[:300])
	if err != nil || !mid.UseIndex {
		t.Fatalf("30%% IN-list should still probe under batch amortisation: %+v err=%v", mid, err)
	}
	none, err := tab.PlanIn("plain", keys[:10])
	if err != nil || none.UseIndex {
		t.Fatalf("unindexed column should scan: %+v err=%v", none, err)
	}
	// Table.SelectIn agrees between paths.
	ridsIdx, _, err := tab.SelectIn("v", keys[5:15])
	if err != nil {
		t.Fatal(err)
	}
	ridsScan, _, err := tab.SelectIn("plain", keys[5:15])
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ridsIdx, func(a, b int) bool { return ridsIdx[a] < ridsIdx[b] })
	sort.Slice(ridsScan, func(a, b int) bool { return ridsScan[a] < ridsScan[b] })
	if len(ridsIdx) != len(ridsScan) {
		t.Fatalf("paths disagree: %v vs %v", ridsIdx, ridsScan)
	}
	for i := range ridsIdx {
		if ridsIdx[i] != ridsScan[i] {
			t.Fatalf("paths disagree at %d: %v vs %v", i, ridsIdx, ridsScan)
		}
	}
}
