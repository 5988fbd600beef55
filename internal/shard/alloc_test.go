//go:build !race

// The race detector makes sync.Pool drop pooled scratch at random, so
// allocation counts only hold without it.

package shard

import (
	"testing"

	"cssidx/internal/parallel"
)

// TestSearchBatchAllocs pins what a steady-state key-ordered batch
// allocates on one worker: nothing through a captured View, and only the
// View capture itself (the View and its two per-shard slices) through
// Index.SearchBatch.
func TestSearchBatchAllocs(t *testing.T) {
	x, _, zipf := benchIndex()
	defer x.Close()
	x.SetParallel(parallel.Options{Workers: 1})
	var reads [][]uint32
	for _, r := range zipf {
		if ChooseKeyOrder(r) {
			reads = append(reads, r)
		}
	}
	if len(reads) < len(zipf)/2 {
		t.Fatalf("only %d of %d Zipf batches run key-ordered", len(reads), len(zipf))
	}
	out := make([]int32, len(reads[0]))
	v := x.View()
	v.SearchBatch(reads[0], out) // fill the scratch pool
	i := 0
	next := func() []uint32 { i++; return reads[i%len(reads)] }
	if got := testing.AllocsPerRun(200, func() { v.SearchBatch(next(), out) }); got != 0 {
		t.Errorf("View.SearchBatch allocates %v objects per batch, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { x.SearchBatch(next(), out) }); got != 3 {
		t.Errorf("Index.SearchBatch allocates %v objects per batch, want 3 (the View capture)", got)
	}
}
