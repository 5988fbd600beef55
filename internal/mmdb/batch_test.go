package mmdb

// Tests for the batched probe paths: SelectIn (sorted and sharded) vs first
// principles, and IN-list access-path selection.

import (
	"sort"
	"testing"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

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
