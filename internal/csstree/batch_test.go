package csstree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cssidx/internal/binsearch"
	"cssidx/internal/workload"
)

func TestBatchMatchesScalarFull(t *testing.T) {
	g := workload.New(180)
	for _, n := range []int{0, 1, 7, 100, 1000, 50000} {
		keys := g.SortedWithDuplicates(n, 3)
		tr := BuildFull(keys, 16)
		probes := append(g.Lookups(keys, 1000), g.Misses(keys, 500)...)
		probes = append(probes, 0, ^uint32(0)) // odd tail: the last group is a short one
		out := make([]int32, len(probes))
		tr.LowerBoundBatch(probes, out)
		for i, p := range probes {
			if int(out[i]) != tr.LowerBound(p) {
				t.Fatalf("n=%d: batch[%d]=%d, scalar=%d (key %d)", n, i, out[i], tr.LowerBound(p), p)
			}
		}
	}
}

func TestBatchMatchesScalarLevel(t *testing.T) {
	g := workload.New(181)
	for _, n := range []int{0, 3, 999, 50000} {
		keys := g.SortedDistinct(n)
		tr := BuildLevel(keys, 16)
		probes := append(g.Lookups(keys, 1000), g.Misses(keys, 500)...)
		out := make([]int32, len(probes))
		tr.LowerBoundBatch(probes, out)
		for i, p := range probes {
			if int(out[i]) != tr.LowerBound(p) {
				t.Fatalf("n=%d: batch[%d]=%d, scalar=%d (key %d)", n, i, out[i], tr.LowerBound(p), p)
			}
		}
	}
}

func TestSearchAndEqualRangeBatchMatchScalar(t *testing.T) {
	g := workload.New(183)
	for _, n := range []int{0, 1, 9, 1000, 20000} {
		keys := g.SortedWithDuplicates(n, 4)
		probes := append(g.Lookups(keys, 600), g.Misses(keys, 300)...)
		probes = append(probes, 0, ^uint32(0))
		out := make([]int32, len(probes))
		first := make([]int32, len(probes))
		last := make([]int32, len(probes))
		full := BuildFull(keys, 16)
		level := BuildLevel(keys, 16)
		for _, tr := range []interface {
			Search(uint32) int
			EqualRange(uint32) (int, int)
			SearchBatch([]uint32, []int32)
			EqualRangeBatch([]uint32, []int32, []int32)
		}{full, level} {
			tr.SearchBatch(probes, out)
			tr.EqualRangeBatch(probes, first, last)
			for i, p := range probes {
				if int(out[i]) != tr.Search(p) {
					t.Fatalf("n=%d: SearchBatch[%d]=%d, scalar=%d (key %d)", n, i, out[i], tr.Search(p), p)
				}
				wf, wl := tr.EqualRange(p)
				if int(first[i]) != wf || int(last[i]) != wl {
					t.Fatalf("n=%d: EqualRangeBatch[%d]=[%d,%d), scalar=[%d,%d) (key %d)",
						n, i, first[i], last[i], wf, wl, p)
				}
			}
		}
	}
}

// batchTree is what the differential battery drives: the three scalar
// methods and their batch counterparts.
type batchTree interface {
	Geometry() Geometry
	LowerBound(uint32) int
	Search(uint32) int
	EqualRange(uint32) (int, int)
	LowerBoundBatch([]uint32, []int32)
	SearchBatch([]uint32, []int32)
	EqualRangeBatch([]uint32, []int32, []int32)
}

// checkBatchesMatchScalar runs the three batch methods over probes and
// requires every answer to equal the scalar method's.
func checkBatchesMatchScalar(t *testing.T, what string, tr batchTree, probes []uint32) {
	t.Helper()
	lb := make([]int32, len(probes))
	sr := make([]int32, len(probes))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	tr.LowerBoundBatch(probes, lb)
	tr.SearchBatch(probes, sr)
	tr.EqualRangeBatch(probes, first, last)
	for i, p := range probes {
		if want := tr.LowerBound(p); int(lb[i]) != want {
			t.Fatalf("%s len=%d: LowerBoundBatch[%d]=%d, scalar=%d (key %d)", what, len(probes), i, lb[i], want, p)
		}
		if want := tr.Search(p); int(sr[i]) != want {
			t.Fatalf("%s len=%d: SearchBatch[%d]=%d, scalar=%d (key %d)", what, len(probes), i, sr[i], want, p)
		}
		if wf, wl := tr.EqualRange(p); int(first[i]) != wf || int(last[i]) != wl {
			t.Fatalf("%s len=%d: EqualRangeBatch[%d]=[%d,%d), scalar=[%d,%d) (key %d)",
				what, len(probes), i, first[i], last[i], wf, wl, p)
		}
	}
}

// batchKeyCounts straddle every depth boundary of the m=16 trees and their
// region I/II switch (the other node sizes cross theirs inside the same
// list).
var batchKeyCounts = []int{1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 65535, 65536, 65537, 70001}

// batchProbePool mixes present keys, absent keys and the edges of the key
// space: 0, MaxUint32, just below the minimum and just above the maximum.
func batchProbePool(g *workload.Gen, keys []uint32, size int) []uint32 {
	pool := []uint32{0, ^uint32(0), keys[0], keys[0] - 1, keys[len(keys)-1], keys[len(keys)-1] + 1}
	pool = append(pool, g.Lookups(keys, size/2)...)
	pool = append(pool, g.Misses(keys, size-len(pool))...)
	return pool
}

// TestBatchSmallerThanWidth checks every batch length from empty through
// two groups and a tail, under every tier: a batch shorter than a group,
// and the tail of a longer one, take the same path as a full group.
func TestBatchSmallerThanWidth(t *testing.T) {
	g := workload.New(184)
	keys := g.SortedWithDuplicates(70001, 3)
	pool := batchProbePool(g, keys, 400)
	forEachKernel(t, func(kern binsearch.Kernel) {
		for name, tr := range map[string]batchTree{"full": BuildFull(keys, 16), "level": BuildLevel(keys, 16)} {
			for n := 0; n <= 2*groupWidth+2; n++ {
				off := n * 7 % (len(pool) - n)
				checkBatchesMatchScalar(t, fmt.Sprintf("%v %s", kern, name), tr, pool[off:off+n])
			}
		}
	})
	tr := BuildFull([]uint32{10, 20, 30}, 16) // one leaf, no directory
	out := make([]int32, 3)
	tr.LowerBoundBatch([]uint32{5, 20, 35}, out)
	if want := []int32{0, 1, 3}; !slices.Equal(out, want) {
		t.Errorf("single-leaf tree: got %v, want %v", out, want)
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	tr := BuildFull([]uint32{1, 2, 3}, 16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.LowerBoundBatch(make([]uint32, 4), make([]int32, 3))
}

func BenchmarkBatchVsScalar(b *testing.B) {
	g := workload.New(182)
	keys := g.SortedUniform(10_000_000)
	probes := g.Lookups(keys, 100_000)
	full := BuildFull(keys, 16)
	out := make([]int32, len(probes))
	b.Run("scalar", func(b *testing.B) {
		s := 0
		for i := 0; i < b.N; i++ {
			s += full.LowerBound(probes[i%len(probes)])
		}
		sinkBatch += s
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i += len(probes) {
			full.LowerBoundBatch(probes, out)
		}
		b.SetBytes(0)
		sinkBatch += int(out[0])
	})
}

var sinkBatch int

// BenchmarkDescendBatch prices the whole lockstep descent out of cache: a
// level tree over 4M uniform keys (16 MB, beyond L2), 16,384-probe batches
// cycling through eight, one leg per batch method.  ns/probe covers the
// level passes, the leaf passes and the op's finish; no leg allocates.
func BenchmarkDescendBatch(b *testing.B) {
	const batch = 16_384
	g := workload.New(188)
	keys := g.SortedUniform(4 << 20)
	tr := BuildLevel(keys, 16)
	probes := g.Lookups(keys, 8*batch)
	first, last := make([]int32, batch), make([]int32, batch)
	for _, leg := range []struct {
		name string
		run  func(probes []uint32)
	}{
		{"LowerBound", func(p []uint32) { tr.LowerBoundBatch(p, first) }},
		{"Search", func(p []uint32) { tr.SearchBatch(p, first) }},
		{"EqualRange", func(p []uint32) { tr.EqualRangeBatch(p, first, last) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := i % 8 * batch
				leg.run(probes[lo : lo+batch])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/probe")
			sinkBatch += int(first[0])
		})
	}
}

// TestLocateLeavesMatchesLeafRange checks binsearch's two leaf passes
// against the geometry on plain slices; batch_guard_linux_test.go runs the
// same check with the key array against a guard page.
func TestLocateLeavesMatchesLeafRange(t *testing.T) {
	g := workload.New(189)
	for _, n := range append([]int{0, 31, 33, 4111}, batchKeyCounts...) {
		checkLeafPasses(t, g.SortedWithDuplicates(n, 3))
	}
}

// checkLeafPasses hands binsearch's leaf passes every node number up to the
// last child of full and level trees over keys — region I and II leaves,
// dangling and partial last leaves, and the internal nodes no descent
// stops at — and numbers that name nothing (negative, huge).  The locate
// pass must store LeafRange's window for each, at every node size.  On
// 16-key leaves, where the CPU has the simd tier, the answer pass must then
// answer every op exactly as finish does or hand the probe back, and must
// hand back every window that is not a whole leaf inside keys without
// reading it.  Each node's probes are that leaf's first and last keys and
// their neighbours, so Search and EqualRange meet leaves whose answer lies
// past their end.  A number that names nothing may still locate a whole
// window inside keys (the window is truncated to int32 as LeafRange's is);
// the answer must then be finish's over that window.
func checkLeafPasses(t *testing.T, keys []uint32) {
	t.Helper()
	pool := []uint32{0, ^uint32(0), 1}
	if len(keys) > 0 {
		pool = append(pool, keys[len(keys)-1], keys[len(keys)-1]+1)
	}
	for _, m := range []int{16, 2, 5, 8, 17, 64} {
		trees := map[string]*Tree{"full": BuildFull(keys, m)}
		if m&(m-1) == 0 {
			trees["level"] = BuildLevel(keys, m)
		}
		for kind, tr := range trees {
			geo := tr.Geometry()
			var nodes []int32
			for d := 0; d <= geo.LNode*geo.Fanout+geo.Fanout; d++ {
				nodes = append(nodes, int32(d))
			}
			nodes = append(nodes, -1, -2, math.MinInt32, math.MaxInt32, math.MaxInt32/16, math.MinInt32/16)
			var probes []uint32
			for j, d := range nodes {
				lo, hi := geo.LeafRange(int(d))
				p := pool[j%len(pool)]
				if lo >= 0 && lo < hi && hi <= len(keys) {
					p = []uint32{keys[lo] - 1, keys[lo], keys[hi-1] - 1, keys[hi-1], keys[hi-1] + 1, p}[j%6]
				}
				probes = append(probes, p)
			}
			for lo := 0; lo < len(nodes); lo += groupWidth {
				hi := min(lo+groupWidth, len(nodes))
				checkLeafGroup(t, fmt.Sprintf("%s m=%d n=%d", kind, m, len(keys)), tr, probes[lo:hi], nodes[lo:hi])
			}
		}
	}
}

// checkLeafGroup runs the leaf passes over one group for checkLeafPasses.
func checkLeafGroup(t *testing.T, what string, tr *Tree, probes []uint32, nodes []int32) {
	t.Helper()
	geo, keys, n := tr.Geometry(), tr.Keys(), len(probes)
	var los, his, todo, first, last, wantFirst, wantLast [groupWidth]int32
	if !binsearch.LocateLeaves(keys, geo.M, geo.MarkKeys, geo.PaddedKeys, geo.BottomEnd, nodes, los[:n], his[:n]) {
		return // no leaf passes on this architecture
	}
	for j, d := range nodes {
		if lo, hi := geo.LeafRange(int(d)); los[j] != int32(lo) || his[j] != int32(hi) {
			t.Fatalf("%s: node %d located at [%d,%d), LeafRange [%d,%d)", what, d, los[j], his[j], lo, hi)
		}
	}
	if geo.M != 16 || !binsearch.KernelAvailable(binsearch.KernelSIMD) {
		return
	}
	for _, op := range []binsearch.LeafOp{binsearch.OpLowerBound, binsearch.OpSearch, binsearch.OpEqualRange} {
		const untouched = -7
		for j := range n {
			first[j], last[j] = untouched, untouched
		}
		left := binsearch.AnswerLeaves(op, keys, probes, los[:n], his[:n], first[:n], last[:n], todo[:n])
		handed := make(map[int32]bool, left)
		for _, j := range todo[:left] {
			handed[j] = true
		}
		for j, p := range probes {
			lo, hi := int(los[j]), int(his[j])
			whole := lo >= 0 && hi == lo+16 && hi <= len(keys)
			if !whole && !handed[int32(j)] {
				t.Fatalf("%s op %d: node %d's window [%d,%d) is not a whole leaf but was answered", what, op, nodes[j], lo, hi)
			}
			if handed[int32(j)] {
				if first[j] != untouched || last[j] != untouched {
					t.Fatalf("%s op %d: node %d handed back but written", what, op, nodes[j])
				}
				continue
			}
			wantLast[j] = untouched
			tr.finish(op, p, lo, hi, j, wantFirst[:], wantLast[:])
			if first[j] != wantFirst[j] || last[j] != wantLast[j] {
				t.Fatalf("%s op %d: node %d probe %d answered (%d, %d), finish (%d, %d)",
					what, op, nodes[j], p, first[j], last[j], wantFirst[j], wantLast[j])
			}
		}
	}
}

// TestBatchAllKernelTiers is the differential battery of the lockstep
// descent: the three batch methods against the scalar ones (which run under
// the same tier) for both tree variants, every node size the trees are
// built with, key counts on both sides of every depth boundary, distinct
// and duplicate-saturated keys, random and sorted probe order, and batch
// lengths on both sides of the group width — under every node-search tier
// this host has.  m = 16 takes the assembly level pass under simd; every
// other cell takes the portable one.
func TestBatchAllKernelTiers(t *testing.T) {
	g := workload.New(182)
	forEachKernel(t, func(kern binsearch.Kernel) {
		for _, n := range batchKeyCounts {
			dists := map[string][]uint32{
				"distinct": g.SortedDistinct(n),
				"dups":     g.SortedWithDuplicates(n, 40),
			}
			if n <= 4097 { // EqualRange scans the run: keep the long runs on the small arrays
				dists["saturated"] = g.SortedWithDuplicates(n, n)
			}
			for dist, keys := range dists {
				pool := batchProbePool(g, keys, 300)
				sorted := slices.Clone(pool)
				slices.Sort(sorted)
				for _, m := range []int{4, 8, 16, 32, 64} {
					for kind, tr := range map[string]batchTree{"full": BuildFull(keys, m), "level": BuildLevel(keys, m)} {
						what := fmt.Sprintf("%v %s m=%d n=%d %s", kern, kind, m, n, dist)
						checkBatchesMatchScalar(t, what+" random", tr, pool)
						checkBatchesMatchScalar(t, what+" sorted", tr, sorted)
						for _, l := range []int{0, 1, groupWidth - 1, groupWidth, groupWidth + 1} {
							checkBatchesMatchScalar(t, what, tr, pool[:l])
						}
					}
				}
			}
		}
	})
}

// TestBatchSurvivesCorruptDirectory is the portable leg of the level-pass
// kernel's memory-safety contract (batch_guard_linux_test.go puts the same
// directories against a guard page): whatever a directory holds — a corrupt
// file admitted by a loader, a torn slice — the descent reads inside it and
// lands every probe on a real leaf, so each answer is a position in [0, n].
// The answers are wrong; they are never out of range and nothing faults.
func TestBatchSurvivesCorruptDirectory(t *testing.T) {
	forEachKernel(t, func(kern binsearch.Kernel) {
		for _, m := range []int{8, 16} {
			checkCorruptDirectories(t, kern, m, func(slots int) []uint32 { return make([]uint32, slots) })
		}
	})
}

// forEachKernel runs body under every node-search tier this host has.
func forEachKernel(t *testing.T, body func(binsearch.Kernel)) {
	t.Helper()
	prev := binsearch.ActiveKernel()
	defer binsearch.SetKernel(prev)
	for _, kern := range []binsearch.Kernel{binsearch.KernelScalar, binsearch.KernelSIMD} {
		if binsearch.SetKernel(kern) {
			body(kern)
		}
	}
}

// checkCorruptDirectories swaps the directory of a full and a level tree of
// node size m for arrays from alloc (which returns exactly the slots asked
// for) filled with random words, all-ones and zeroes, and requires every
// batch answer to stay in range.  The key array comes from alloc too.
func checkCorruptDirectories(t *testing.T, kern binsearch.Kernel, m int, alloc func(slots int) []uint32) {
	t.Helper()
	g := workload.New(185)
	rng := rand.New(rand.NewSource(185))
	keys := alloc(70001)
	copy(keys, g.SortedWithDuplicates(len(keys), 3))
	probes := batchProbePool(g, keys, 3*groupWidth+5)
	n := int32(len(keys))
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	fills := map[string]func() uint32{
		"random": rng.Uint32,
		"ones":   func() uint32 { return ^uint32(0) },
		"zeroes": func() uint32 { return 0 },
	}
	for fill, word := range fills {
		full, level := BuildFull(keys, m), BuildLevel(keys, m)
		for kind, tr := range map[string]struct {
			batchTree
			dir *[]uint32
		}{"full": {full, &full.dir}, "level": {level, &level.dir}} {
			dir := alloc(len(*tr.dir))
			for i := range dir {
				dir[i] = word()
			}
			*tr.dir = dir
			what := fmt.Sprintf("%v %s m=%d %s", kern, kind, m, fill)
			checkLevelPassStaysInside(t, what, tr.Geometry(), dir, probes)
			tr.LowerBoundBatch(probes, first)
			for i, pos := range first {
				if pos < 0 || pos > n {
					t.Fatalf("%s: LowerBoundBatch[%d]=%d outside [0,%d]", what, i, pos, n)
				}
			}
			tr.SearchBatch(probes, first)
			for i, pos := range first {
				if pos < -1 || pos >= n {
					t.Fatalf("%s: SearchBatch[%d]=%d outside [-1,%d)", what, i, pos, n)
				}
			}
			tr.EqualRangeBatch(probes, first, last)
			for i := range first {
				if first[i] < 0 || first[i] > last[i] || last[i] > n {
					t.Fatalf("%s: EqualRangeBatch[%d]=[%d,%d) outside [0,%d]", what, i, first[i], last[i], n)
				}
			}
		}
	}
}

// checkLevelPassStaysInside hands the level-pass kernel every node number
// of the directory — the last one included, whose vector loads end at the
// directory's last byte — and numbers that name no node: each internal node
// must yield one of its own children, and a number past lNode (or negative)
// must be left alone, unread.
func checkLevelPassStaysInside(t *testing.T, what string, g Geometry, dir, probes []uint32) {
	t.Helper()
	nodes := make([]int32, 0, g.Internal+4)
	for d := 0; d <= g.LNode; d++ {
		nodes = append(nodes, int32(d))
	}
	nodes = append(nodes, int32(g.LNode+1), -1, math.MinInt32, math.MaxInt32)
	before := slices.Clone(nodes)
	group := make([]uint32, len(nodes))
	for j := range group {
		group[j] = probes[j%len(probes)]
	}
	binsearch.DescendLevel(dir, g.M, g.Fanout, g.LNode, group, nodes)
	for j, d := range before {
		if int(d) > g.LNode || d < 0 {
			if nodes[j] != d {
				t.Fatalf("%s: node %d is past lNode=%d but was advanced to %d", what, d, g.LNode, nodes[j])
			}
			continue
		}
		if lo, hi := int(d)*g.Fanout+1, int(d)*g.Fanout+g.Fanout; int(nodes[j]) < lo || int(nodes[j]) > hi {
			t.Fatalf("%s: node %d advanced to %d, not one of its children [%d,%d]", what, d, nodes[j], lo, hi)
		}
	}
}

// TestBatchAllocatesNothing pins that the group state lives on the stack:
// no batch method allocates, whatever the batch length.
func TestBatchAllocatesNothing(t *testing.T) {
	g := workload.New(186)
	keys := g.SortedWithDuplicates(70001, 3)
	probes := batchProbePool(g, keys, 1000)
	first := make([]int32, len(probes))
	last := make([]int32, len(probes))
	for name, tr := range map[string]batchTree{"full": BuildFull(keys, 16), "level": BuildLevel(keys, 16)} {
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
