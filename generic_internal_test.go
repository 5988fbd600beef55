package cssidx

import (
	"testing"

	"cssidx/internal/binsearch"
	"cssidx/internal/workload"
)

// TestGenericUint32KernelFastPath checks the uint32 fast path of the
// Generic batch methods — csstree.DescendBatch over the generic builder's
// directory — against the scalar generic descent: both tree variants, every
// node size, key counts on both sides of every depth boundary, and batch
// lengths on both sides of the group width, under every available tier.
func TestGenericUint32KernelFastPath(t *testing.T) {
	prev := binsearch.ActiveKernel()
	defer binsearch.SetKernel(prev)
	g := workload.New(440)
	for _, kern := range []binsearch.Kernel{binsearch.KernelScalar, binsearch.KernelSIMD} {
		if !binsearch.SetKernel(kern) {
			continue
		}
		for _, n := range []int{0, 1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 65535, 65536, 65537, 70001} {
			keys := g.SortedWithDuplicates(n, 4)
			probes := append(g.Lookups(keys, 100), g.Misses(keys, 27)...)
			probes = append(probes, 0, ^uint32(0), 7)
			for _, m := range []int{4, 8, 16, 32, 64} {
				for name, tr := range map[string]*Generic[uint32]{
					"full":  NewGenericFull(keys, m),
					"level": NewGenericLevel(keys, m),
				} {
					if tr.keysU32 == nil && n > 0 {
						t.Fatalf("%s: uint32 fast path not cached", name)
					}
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
							if int(out[i]) != tr.LowerBound(p) {
								t.Fatalf("%v %s m=%d n=%d: LowerBoundBatch[%d]=%d scalar=%d (key %d)", kern, name, m, n, i, out[i], tr.LowerBound(p), p)
							}
							f, l := tr.EqualRange(p)
							if int(first[i]) != f || int(last[i]) != l {
								t.Fatalf("%v %s m=%d n=%d: EqualRangeBatch[%d]=(%d,%d) scalar=(%d,%d)", kern, name, m, n, i, first[i], last[i], f, l)
							}
							if int(sr[i]) != tr.Search(p) {
								t.Fatalf("%v %s m=%d n=%d: SearchBatch[%d]=%d scalar=%d", kern, name, m, n, i, sr[i], tr.Search(p))
							}
						}
					}
				}
			}
		}
	}
}

// TestGenericUint32BatchAllocatesNothing pins that the uint32 fast path
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

// TestGenericNonUint32SkipsFastPath pins that other key widths keep the
// comparison descent (and still answer correctly).
func TestGenericNonUint32SkipsFastPath(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	tr := NewGenericFull(keys, 8)
	if tr.keysU32 != nil {
		t.Fatal("uint64 tree cached a uint32 fast path")
	}
	probes := []uint64{0, 1, 2, 3, 1500, 2997, 5000}
	out := make([]int32, len(probes))
	tr.LowerBoundBatch(probes, out)
	for i, p := range probes {
		if int(out[i]) != tr.LowerBound(p) {
			t.Fatalf("batch[%d]=%d scalar=%d", i, out[i], tr.LowerBound(p))
		}
	}
}
