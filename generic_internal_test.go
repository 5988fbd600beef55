package cssidx

import (
	"fmt"
	"slices"
	"testing"

	"cssidx/internal/csstree"
	"cssidx/internal/workload"
)

// TestGenericUint32KernelFastPath checks the Generic batch methods over
// uint32 keys against the kernel-dispatched scalar descent of the csstree
// tree of the same build: both variants, every node size, key counts on both
// sides of every depth boundary, and batch lengths on both sides of the
// group width.
func TestGenericUint32KernelFastPath(t *testing.T) {
	g := workload.New(440)
	for _, n := range []int{0, 1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 65535, 65536, 65537, 70001} {
		keys := g.SortedWithDuplicates(n, 4)
		probes := append(g.Lookups(keys, 100), g.Misses(keys, 27)...)
		probes = append(probes, 0, ^uint32(0), 7)
		for _, m := range []int{4, 8, 16, 32, 64} {
			for name, tr := range map[string]struct {
				*Generic[uint32]
				ref *csstree.Tree
			}{
				"full":  {NewGenericFull(keys, m), csstree.BuildFull(keys, m)},
				"level": {NewGenericLevel(keys, m), csstree.BuildLevel(keys, m)},
			} {
				for _, l := range []int{0, 1, 63, 64, 65, len(probes)} {
					l = min(l, len(probes)) // an empty key array yields no lookups
					ps := probes[:l]
					out := make([]int32, l)
					tr.LowerBoundBatch(ps, out)
					first := make([]int32, l)
					last := make([]int32, l)
					tr.EqualRangeBatch(ps, first, last)
					sr := make([]int32, l)
					tr.SearchBatch(ps, sr)
					for i, p := range ps {
						if int(out[i]) != tr.ref.LowerBound(p) {
							t.Fatalf("%s m=%d n=%d: LowerBoundBatch[%d]=%d want %d (key %d)", name, m, n, i, out[i], tr.ref.LowerBound(p), p)
						}
						f, l := tr.ref.EqualRange(p)
						if int(first[i]) != f || int(last[i]) != l {
							t.Fatalf("%s m=%d n=%d: EqualRangeBatch[%d]=(%d,%d) want (%d,%d)", name, m, n, i, first[i], last[i], f, l)
						}
						if int(sr[i]) != tr.ref.Search(p) {
							t.Fatalf("%s m=%d n=%d: SearchBatch[%d]=%d want %d", name, m, n, i, sr[i], tr.ref.Search(p))
						}
					}
				}
			}
		}
	}
}

// TestGenericUint32BatchAllocatesNothing pins that the lockstep descent
// keeps its group state on the stack and boxes nothing on the way in.
func TestGenericUint32BatchAllocatesNothing(t *testing.T) {
	g := workload.New(441)
	keys := g.SortedWithDuplicates(70001, 3)
	probes := append(g.Lookups(keys, 700), g.Misses(keys, 300)...)
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	for name, tr := range map[string]*Generic[uint32]{"full": NewGenericFull(keys, 16), "level": NewGenericLevel(keys, 16)} {
		for method, call := range map[string]func(){
			"LowerBoundBatch": func() { tr.LowerBoundBatch(probes, first) },
			"SearchBatch":     func() { tr.SearchBatch(probes, first) },
			"EqualRangeBatch": func() { tr.EqualRangeBatch(probes, first, last) },
		} {
			if allocs := testing.AllocsPerRun(10, call); allocs != 0 {
				t.Errorf("%s %s: %v allocations per batch, want 0", name, method, allocs)
			}
		}
	}
}

// TestGenericNonUint32SkipsFastPath pins that other key widths answer
// batches exactly as the scalar descent does.
func TestGenericNonUint32SkipsFastPath(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	tr := NewGenericFull(keys, 8)
	probes := []uint64{0, 1, 2, 3, 1500, 2997, 5000}
	out := make([]int32, len(probes))
	tr.LowerBoundBatch(probes, out)
	for i, p := range probes {
		if int(out[i]) != tr.LowerBound(p) {
			t.Fatalf("batch[%d]=%d scalar=%d", i, out[i], tr.LowerBound(p))
		}
	}
}

// TestOneDirectoryFill holds every builder to the one fill of its variant:
// Generic[uint32] and RecordTree[uint32] directories must equal BuildFull's,
// and a Generic[uint32] level directory BuildLevel's aux slots included,
// slot for slot, at every size around a node and a two-level tree.
func TestOneDirectoryFill(t *testing.T) {
	g := workload.New(442)
	for _, m := range []int{2, 3, 4, 5, 16, 32} {
		for _, n := range []int{0, 1, m - 1, m, m + 1, m * m, m*m + 1, 3000} {
			keys := g.SortedWithDuplicates(n, 3)
			full := csstree.BuildFull(keys, m).Dir()
			rec := NewRecordTree(n, func(i int) uint32 { return keys[i] }, m).dir
			dirs := map[string][2][]uint32{
				"full/Generic":    {NewGenericFull(keys, m).dir, full},
				"full/RecordTree": {rec, full},
			}
			if csstree.CheckLevelSlots(m) == nil {
				dirs["level/Generic"] = [2][]uint32{NewGenericLevel(keys, m).dir, csstree.BuildLevel(keys, m).Dir()}
			}
			for name, d := range dirs {
				if !slices.Equal(d[0], d[1]) {
					t.Errorf("%s m=%d n=%d: directory differs: %s", name, m, n, firstDiff(d[0], d[1]))
				}
			}
		}
	}
}

func firstDiff(got, want []uint32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d slots, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("slot %d = %d, want %d", i, got[i], want[i])
		}
	}
	return "equal"
}
