package shard_test

import (
	"sort"
	"testing"

	"cssidx/internal/parallel"
	"cssidx/internal/shard"
	"cssidx/internal/workload"
)

// batchOracle answers by definition on the sorted whole-key slice.
type batchOracle []uint32

func (o batchOracle) lowerBound(k uint32) int {
	return sort.Search(len(o), func(i int) bool { return o[i] >= k })
}
func (o batchOracle) search(k uint32) int {
	if i := o.lowerBound(k); i < len(o) && o[i] == k {
		return i
	}
	return -1
}
func (o batchOracle) equalRange(k uint32) (int, int) {
	f := o.lowerBound(k)
	l := f
	for l < len(o) && o[l] == k {
		l++
	}
	return f, l
}

func checkBatchAgainstOracle(t *testing.T, x *shard.Index, o batchOracle, probes []uint32) {
	t.Helper()
	out := make([]int32, len(probes))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	x.LowerBoundBatch(probes, out)
	for i, p := range probes {
		if int(out[i]) != o.lowerBound(p) {
			t.Fatalf("LowerBoundBatch[%d]=%d want %d (key %d)", i, out[i], o.lowerBound(p), p)
		}
	}
	x.SearchBatch(probes, out)
	for i, p := range probes {
		if int(out[i]) != o.search(p) {
			t.Fatalf("SearchBatch[%d]=%d want %d (key %d)", i, out[i], o.search(p), p)
		}
	}
	x.EqualRangeBatch(probes, first, last)
	for i, p := range probes {
		wf, wl := o.equalRange(p)
		if int(first[i]) != wf || int(last[i]) != wl {
			t.Fatalf("EqualRangeBatch[%d]=[%d,%d) want [%d,%d) (key %d)", i, first[i], last[i], wf, wl, p)
		}
	}
}

// TestBatchMatchesOracle drives both probe orders over several shard counts
// and key shapes.
func TestBatchMatchesOracle(t *testing.T) {
	g := workload.New(91)
	for _, n := range []int{0, 1, 100, 5000} {
		keys := g.SortedWithDuplicates(n, 3)
		probes := append(g.Lookups(keys, 800), g.Misses(keys, 400)...)
		probes = append(probes, 0, ^uint32(0))
		if n == 0 {
			probes = []uint32{0, 5, ^uint32(0)}
		}
		input, keyOrdered := shard.PathBatches(t, probes)
		for _, nshards := range []int{1, 3, 8} {
			for _, workers := range []int{1, 4} {
				x := shard.NewEqual(keys, nshards, 16)
				x.SetParallel(parallel.Options{Workers: workers, MinBatchPerWorker: 64})
				checkBatchAgainstOracle(t, x, batchOracle(keys), input)
				checkBatchAgainstOracle(t, x, batchOracle(keys), keyOrdered)
				x.Close()
			}
		}
	}
}

// TestViewBatchSingleEpoch checks a batch against a frozen View is immune to
// epoch-swaps published mid-stream: the View's batched answers stay
// bit-identical to its own scalar answers even after updates land.
func TestViewBatchSingleEpoch(t *testing.T) {
	g := workload.New(92)
	keys := g.SortedDistinct(4000)
	x := shard.NewEqual(keys, 4, 16)
	defer x.Close()
	v := x.Snapshot()
	input, keyOrdered := shard.PathBatches(t, append(g.Lookups(keys, 500), g.Misses(keys, 200)...))
	x.Insert(g.Misses(keys, 300)...)
	x.Sync() // the live index moved on; v must not notice
	for _, probes := range [][]uint32{input, keyOrdered} {
		out := make([]int32, len(probes))
		v.LowerBoundBatch(probes, out)
		for i, p := range probes {
			if int(out[i]) != v.LowerBound(p) {
				t.Fatalf("view batch[%d]=%d, view scalar=%d (key %d)", i, out[i], v.LowerBound(p), p)
			}
		}
	}
}
