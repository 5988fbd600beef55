//go:build !race

// The race detector makes sync.Pool drop pooled scratch at random, so
// allocation counts only hold without it.

package shard

import (
	"slices"
	"testing"

	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// TestSearchBatchAllocs pins what a steady-state 512-probe batch allocates
// on one worker, in either probe order and through each batch method:
// nothing through a captured View, a Freeze view at its default options or
// the Index method, whose View capture comes from the index's pool.
func TestSearchBatchAllocs(t *testing.T) {
	x, keys, zipf := benchIndex()
	defer x.Close()
	x.SetParallel(parallel.Options{Workers: 1})
	var keyOrdered [][]uint32
	for _, r := range zipf {
		if ChooseKeyOrder(r) {
			keyOrdered = append(keyOrdered, r)
		}
	}
	if len(keyOrdered) < len(zipf)/2 {
		t.Fatalf("only %d of %d Zipf batches run key-ordered", len(keyOrdered), len(zipf))
	}
	g := workload.New(2)
	input := make([][]uint32, 64)
	for i := range input {
		if input[i] = g.Lookups(keys, 512); ChooseKeyOrder(input[i]) {
			t.Fatalf("uniform batch %d runs key-ordered", i)
		}
	}
	first, last := make([]int32, 512), make([]int32, 512)
	v, fz := x.Snapshot(), Freeze(keys, x.bounds, x.m)
	methods := []struct {
		name  string
		index func(probes []uint32)
		views func(v *View, probes []uint32)
	}{
		{"SearchBatch", func(p []uint32) { x.SearchBatch(p, first) }, func(v *View, p []uint32) { v.SearchBatch(p, first) }},
		{"LowerBoundBatch", func(p []uint32) { x.LowerBoundBatch(p, first) }, func(v *View, p []uint32) { v.LowerBoundBatch(p, first) }},
		{"EqualRangeBatch", func(p []uint32) { x.EqualRangeBatch(p, first, last) }, func(v *View, p []uint32) { v.EqualRangeBatch(p, first, last) }},
	}
	for _, order := range []struct {
		name    string
		batches [][]uint32
	}{{"input", input}, {"key", keyOrdered}} {
		i := 0
		next := func() []uint32 { i++; return order.batches[i%len(order.batches)] }
		for _, m := range methods {
			for _, view := range []struct {
				name string
				v    *View
			}{{"View", v}, {"Freeze view", fz}} {
				m.views(view.v, next()) // fill the scratch pool
				if got := testing.AllocsPerRun(200, func() { m.views(view.v, next()) }); got != 0 {
					t.Errorf("%s-order %s.%s allocates %v objects per batch, want 0", order.name, view.name, m.name, got)
				}
			}
			if got := testing.AllocsPerRun(200, func() { m.index(next()) }); got != 0 {
				t.Errorf("%s-order Index.%s allocates %v objects per batch, want 0", order.name, m.name, got)
			}
		}
	}
	// A pooled View holds no snapshot: retired bases are not pinned.
	if pv, ok := x.views.Get().(*View); !ok || slices.ContainsFunc(pv.snaps, func(sn *snapshot) bool { return sn != nil }) {
		t.Errorf("the Index's pooled View (found %v) still points at captured snapshots", ok)
	}
}
