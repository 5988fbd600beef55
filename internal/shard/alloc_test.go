//go:build !race

// The race detector makes sync.Pool drop pooled scratch at random, so
// allocation counts only hold without it.

package shard

import (
	"runtime/debug"
	"slices"
	"testing"

	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// TestSearchBatchAllocs pins what a steady-state batch allocates on one
// worker, in either probe order and through each batch method: nothing
// through a captured View, a Freeze view at its default options or the
// Index method, whose View capture comes from the index's pool.  Key order
// runs 512-probe Zipf batches over eight shards; input order runs uniform
// 512-probe batches over one shard and uniform 100-probe batches over eight
// (below 128 probes no view sorts).
func TestSearchBatchAllocs(t *testing.T) {
	x, keys, zipf := benchIndex()
	defer x.Close()
	x.SetParallel(parallel.Options{Workers: 1})
	x1 := NewEqual(keys, 1, 16)
	defer x1.Close()
	x1.SetParallel(parallel.Options{Workers: 1})
	v, fz := x.Snapshot(), Freeze(keys, x.bounds, x.m)
	v1, fz1 := x1.Snapshot(), Freeze(keys, nil, x1.m)
	var keyOrdered [][]uint32
	for _, r := range zipf {
		if v.keyOrdered(r) {
			keyOrdered = append(keyOrdered, r)
		}
	}
	if len(keyOrdered) < len(zipf)/2 {
		t.Fatalf("only %d of %d Zipf batches run key-ordered", len(keyOrdered), len(zipf))
	}
	g := workload.New(2)
	oneShard, small := make([][]uint32, 64), make([][]uint32, 64)
	for i := range oneShard {
		oneShard[i], small[i] = g.Lookups(keys, 512), g.Lookups(keys, 100)
		if v1.keyOrdered(oneShard[i]) || v.keyOrdered(small[i]) {
			t.Fatalf("uniform batch %d runs key-ordered", i)
		}
	}
	// A collection empties the pools; with none from here on, the counts and
	// the pool check below see exactly what the batches left there.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first, last := make([]int32, 512), make([]int32, 512)
	methods := []struct {
		name  string
		index func(x *Index, probes []uint32)
		views func(v *View, probes []uint32)
	}{
		{"SearchBatch", func(x *Index, p []uint32) { x.SearchBatch(p, first[:len(p)]) }, func(v *View, p []uint32) { v.SearchBatch(p, first[:len(p)]) }},
		{"LowerBoundBatch", func(x *Index, p []uint32) { x.LowerBoundBatch(p, first[:len(p)]) }, func(v *View, p []uint32) { v.LowerBoundBatch(p, first[:len(p)]) }},
		{"EqualRangeBatch", func(x *Index, p []uint32) { x.EqualRangeBatch(p, first[:len(p)], last[:len(p)]) }, func(v *View, p []uint32) { v.EqualRangeBatch(p, first[:len(p)], last[:len(p)]) }},
	}
	for _, order := range []struct {
		name    string
		x       *Index
		v, fz   *View
		batches [][]uint32
	}{{"one-shard input", x1, v1, fz1, oneShard}, {"small-batch input", x, v, fz, small}, {"key", x, v, fz, keyOrdered}} {
		i := 0
		next := func() []uint32 { i++; return order.batches[i%len(order.batches)] }
		for _, m := range methods {
			for _, view := range []struct {
				name string
				v    *View
			}{{"View", order.v}, {"Freeze view", order.fz}} {
				m.views(view.v, next()) // fill the scratch pool
				if got := testing.AllocsPerRun(200, func() { m.views(view.v, next()) }); got != 0 {
					t.Errorf("%s-order %s.%s allocates %v objects per batch, want 0", order.name, view.name, m.name, got)
				}
			}
			if got := testing.AllocsPerRun(200, func() { m.index(order.x, next()) }); got != 0 {
				t.Errorf("%s-order Index.%s allocates %v objects per batch, want 0", order.name, m.name, got)
			}
		}
	}
	// A pooled View holds no snapshot: retired bases are not pinned.
	if pv, ok := x.views.Get().(*View); !ok || slices.ContainsFunc(pv.snaps, func(sn *snapshot) bool { return sn != nil }) {
		t.Errorf("the Index's pooled View (found %v) still points at captured snapshots", ok)
	}
}
