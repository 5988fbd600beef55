package cssidx_test

import (
	"testing"

	"cssidx"
	"cssidx/internal/workload"
)

// TestEveryKindAnswersBatches drives every method through the batch surface
// and checks bit-identical agreement with its own scalar methods.
func TestEveryKindAnswersBatches(t *testing.T) {
	g := workload.New(31)
	keys := g.SortedWithDuplicates(20000, 3)
	probes := append(g.Lookups(keys, 2000), g.Misses(keys, 1000)...)
	probes = append(probes, 0, ^uint32(0))
	out := make([]int32, len(probes))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	for _, kind := range cssidx.Kinds() {
		idx := cssidx.New(kind, keys, cssidx.Options{})
		b := cssidx.AsBatch(idx)
		b.SearchBatch(probes, out)
		for i, p := range probes {
			if int(out[i]) != idx.Search(p) {
				t.Fatalf("%s: SearchBatch[%d]=%d, scalar=%d (key %d)", kind, i, out[i], idx.Search(p), p)
			}
		}
		ord, ok := idx.(cssidx.OrderedIndex)
		if !ok {
			continue
		}
		bo := cssidx.AsBatchOrdered(ord)
		bo.LowerBoundBatch(probes, out)
		bo.EqualRangeBatch(probes, first, last)
		for i, p := range probes {
			if int(out[i]) != ord.LowerBound(p) {
				t.Fatalf("%s: LowerBoundBatch[%d]=%d, scalar=%d (key %d)", kind, i, out[i], ord.LowerBound(p), p)
			}
			wf, wl := ord.EqualRange(p)
			if int(first[i]) != wf || int(last[i]) != wl {
				t.Fatalf("%s: EqualRangeBatch[%d]=[%d,%d), scalar=[%d,%d)", kind, i, first[i], last[i], wf, wl)
			}
		}
	}
}

// TestSortedBatchSchedule checks the sort-probes-first schedule (radix sort
// + dedup) returns bit-identical results through all three batch methods,
// including batches dominated by repeated keys.
func TestSortedBatchSchedule(t *testing.T) {
	g := workload.New(32)
	keys := g.SortedWithDuplicates(20000, 3)
	probes := append(g.Lookups(keys, 1500), g.Misses(keys, 700)...)
	// A hot-key burst: the dedup path must fan one descent out to all copies.
	hot := keys[len(keys)/2]
	for i := 0; i < 200; i++ {
		probes = append(probes, hot)
	}
	probes = append(probes, 0, ^uint32(0))
	for _, kind := range []cssidx.Kind{cssidx.KindLevelCSS, cssidx.KindFullCSS, cssidx.KindBinarySearch} {
		ord := cssidx.New(kind, keys, cssidx.Options{}).(cssidx.OrderedIndex)
		sb := cssidx.NewSortedBatch(ord)
		out := make([]int32, len(probes))
		first := make([]int32, len(probes))
		last := make([]int32, len(probes))
		sb.SearchBatch(probes, out)
		for i, p := range probes {
			if int(out[i]) != ord.Search(p) {
				t.Fatalf("%s: sorted SearchBatch[%d]=%d, scalar=%d (key %d)", kind, i, out[i], ord.Search(p), p)
			}
		}
		sb.LowerBoundBatch(probes, out)
		sb.EqualRangeBatch(probes, first, last)
		for i, p := range probes {
			if int(out[i]) != ord.LowerBound(p) {
				t.Fatalf("%s: sorted LowerBoundBatch[%d]=%d, scalar=%d (key %d)", kind, i, out[i], ord.LowerBound(p), p)
			}
			wf, wl := ord.EqualRange(p)
			if int(first[i]) != wf || int(last[i]) != wl {
				t.Fatalf("%s: sorted EqualRangeBatch[%d]=[%d,%d), scalar=[%d,%d)", kind, i, first[i], last[i], wf, wl)
			}
		}
	}
}

// TestCSSKindsBatchNatively asserts the CSS-trees expose the lockstep kernel
// directly rather than through the scalar adapter.
func TestCSSKindsBatchNatively(t *testing.T) {
	keys := []uint32{1, 2, 3}
	for _, kind := range []cssidx.Kind{cssidx.KindFullCSS, cssidx.KindLevelCSS} {
		idx := cssidx.New(kind, keys, cssidx.Options{})
		if _, ok := idx.(cssidx.BatchOrderedIndex); !ok {
			t.Errorf("%s does not implement BatchOrderedIndex natively", kind)
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	idx := cssidx.AsBatchOrdered(cssidx.NewBinarySearch([]uint32{1, 2, 3}))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on probes/out length mismatch")
		}
	}()
	idx.SearchBatch(make([]uint32, 4), make([]int32, 3))
}
