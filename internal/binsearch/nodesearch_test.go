package binsearch

// Differential battery for the node-search dispatch tiers: every available
// kernel (scalar ladder, SIMD) must answer bit-identically to the
// branchy NodeLowerBoundScalar oracle on every node size m∈{1..64}, over
// adversarial windows (duplicate-saturated, boundary-value, padded) and
// every distinguishing probe, for the single-probe kernels, the 16-wide
// multi-probe kernel, the level-pass kernel and the leaf-answer pass.  A
// fuzz target extends the same invariant to arbitrary windows.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cssidx/internal/mem"
	"cssidx/internal/workload"
)

// availableKernels lists the tiers this host can run.
func availableKernels() []Kernel {
	ks := []Kernel{KernelScalar}
	if KernelAvailable(KernelSIMD) {
		ks = append(ks, KernelSIMD)
	}
	return ks
}

// withKernel runs fn under each available tier, restoring the default.
func withKernel(t *testing.T, fn func(t *testing.T, k Kernel)) {
	t.Helper()
	prev := ActiveKernel()
	defer SetKernel(prev)
	for _, k := range availableKernels() {
		if !SetKernel(k) {
			t.Fatalf("SetKernel(%v) refused an available kernel", k)
		}
		t.Run(k.String(), func(t *testing.T) { fn(t, k) })
	}
}

func TestKernelParseAndAvailability(t *testing.T) {
	for _, k := range []Kernel{KernelScalar, KernelSIMD} {
		got, ok := ParseKernel(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKernel(%q) = %v, %v", k.String(), got, ok)
		}
	}
	for _, name := range []string{"avx512", "swar"} { // never a tier; a retired one
		if _, ok := ParseKernel(name); ok {
			t.Fatalf("ParseKernel accepted the unknown tier %q", name)
		}
	}
	if !KernelAvailable(KernelScalar) {
		t.Fatal("the portable tier must always be available")
	}
	if !KernelAvailable(KernelSIMD) && SetKernel(KernelSIMD) {
		t.Fatal("SetKernel accepted an unavailable kernel")
	}
}

// TestDispatchTiersExhaustive is the acceptance battery: every tier ×
// every node size 1..64 × adversarial windows × every distinguishing probe.
func TestDispatchTiersExhaustive(t *testing.T) {
	withKernel(t, func(t *testing.T, k Kernel) {
		g := workload.New(7)
		for m := 1; m <= 64; m++ {
			for wi, w := range windowsFor(m, g) {
				for _, p := range probesFor(w) {
					want := NodeLowerBoundScalar(w, m, p)
					if ref := refNodeLB(w, m, p); want != ref {
						t.Fatalf("oracle disagrees with linear scan: m=%d window=%d probe=%d", m, wi, p)
					}
					if got := NodeLowerBound(w, m, p); got != want {
						t.Fatalf("%v: m=%d window=%d probe=%d: got %d want %d (window %v)",
							k, m, wi, p, got, want, w)
					}
				}
			}
		}
	})
}

// TestDispatchTiersDuplicateSaturated drives windows that are nothing but
// duplicate runs — the shape of CSS nodes over heavily-skewed columns.
func TestDispatchTiersDuplicateSaturated(t *testing.T) {
	withKernel(t, func(t *testing.T, k Kernel) {
		for m := 1; m <= 64; m++ {
			// Two runs of duplicates split at every possible point,
			// including 0 and m (all-equal windows).
			for split := 0; split <= m; split++ {
				w := make([]uint32, m)
				for i := range w {
					if i < split {
						w[i] = 100
					} else {
						w[i] = 200
					}
				}
				for _, p := range []uint32{0, 99, 100, 101, 199, 200, 201, ^uint32(0)} {
					want := NodeLowerBoundScalar(w, m, p)
					if got := NodeLowerBound(w, m, p); got != want {
						t.Fatalf("%v: m=%d split=%d probe=%d: got %d want %d", k, m, split, p, got, want)
					}
				}
			}
		}
	})
}

// TestNodeLowerBound16AllTiers checks the multi-probe kernel against 16
// independent single-probe answers for every node size and tier.
func TestNodeLowerBound16AllTiers(t *testing.T) {
	withKernel(t, func(t *testing.T, k Kernel) {
		g := workload.New(11)
		for m := 1; m <= 64; m++ {
			for _, w := range windowsFor(m, g) {
				probes := probesFor(w)
				// Pad to a multiple of the group width.
				for len(probes)%GroupWidth != 0 {
					probes = append(probes, probes[0])
				}
				var out [GroupWidth]int32
				for base := 0; base+GroupWidth <= len(probes); base += GroupWidth {
					group := probes[base : base+GroupWidth]
					NodeLowerBound16(w, m, group, out[:])
					for j, p := range group {
						want := NodeLowerBoundScalar(w, m, p)
						if int(out[j]) != want {
							t.Fatalf("%v: m=%d probe=%d slot %d: got %d want %d", k, m, p, j, out[j], want)
						}
					}
				}
			}
		}
	})
}

// withLevelBodies runs fn under each body of the simd level pass — AVX2,
// then AVX-512 where this host has it — restoring the detected body.
func withLevelBodies(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	prev := levelPass512
	defer func() { levelPass512 = prev }()
	for _, avx512 := range []bool{false, true} {
		name := "avx2"
		if avx512 {
			name = "avx512"
		}
		t.Run(name, func(t *testing.T) {
			if avx512 && !avx512Available {
				t.Skip("no AVX-512 on this host: only the AVX2 body can run")
			}
			levelPass512 = avx512
			fn(t)
		})
	}
}

// TestDescendLevelAllTiers checks the level-pass kernel against the branchy
// oracle for both cache-line shapes (the assembly bodies under simd, each
// under both its AVX2 and AVX-512 body) and a spread of other node sizes
// (the portable loop): a directory whose nodes are the adversarial windows,
// every distinguishing probe on every node, group lengths from one probe
// up, and node numbers past lNode mixed in — those must come back untouched.
func TestDescendLevelAllTiers(t *testing.T) {
	withKernel(t, func(t *testing.T, k Kernel) {
		if k != KernelSIMD {
			checkDescendLevel(t, k)
			return
		}
		withLevelBodies(t, func(t *testing.T) { checkDescendLevel(t, k) })
	})
}

func checkDescendLevel(t *testing.T, k Kernel) {
	g := workload.New(12)
	for _, shape := range []struct{ m, fan int }{{16, 16}, {16, 17}, {8, 8}, {8, 9}, {4, 5}, {32, 32}, {64, 65}} {
		m, fan, routing := shape.m, shape.fan, shape.fan-1
		windows := windowsFor(routing, g)
		lNode := len(windows) - 1
		dir := make([]uint32, len(windows)*m)
		var probes []uint32
		var nodes []int32
		for d, w := range windows {
			copy(dir[d*m:], w)
			if routing < m {
				dir[d*m+routing] = 0 // a level node's spare slot never routes
			}
			for _, p := range probesFor(w) {
				probes = append(probes, p, p)
				nodes = append(nodes, int32(d), int32(lNode+1+d))
			}
		}
		for _, width := range []int{1, 3, 64, len(probes)} {
			for lo := 0; lo < len(probes); lo += width {
				hi := min(lo+width, len(probes))
				got := append([]int32(nil), nodes[lo:hi]...)
				DescendLevel(dir, m, fan, lNode, probes[lo:hi], got)
				for j, d := range nodes[lo:hi] {
					want := d
					if int(d) <= lNode {
						base := int(d) * m
						want = d*int32(fan) + 1 + int32(NodeLowerBoundScalar(dir[base:base+routing], routing, probes[lo+j]))
					}
					if got[j] != want {
						t.Fatalf("%v m=%d fan=%d width=%d: node %d probe %d → %d, want %d", k, m, fan, width, d, probes[lo+j], got[j], want)
					}
				}
			}
		}
	}
}

// TestLeafLowerBoundsMatchNodeLowerBound checks the leaf-answer pass, for
// every op, against the oracle: on sorted arrays with duplicate runs, every
// window keys[lo:lo+width] of 0 to 16 keys, probed at 0, MaxUint32, every
// key and every key ±1.  A whole 16-key window must answer as
// NodeLowerBoundScalar and the scalar finish do, or hand the probe back
// where its answer reaches past the leaf — the duplicate runs end inside,
// at and past the leaf's end, so EqualRange meets all three; any other
// window hands every probe back, untouched.  The last cases are a mixed
// group in which each probe has its own window, and key arrays shorter
// than a leaf.  The pass does not dispatch on the tier, so each tier runs
// the same kernel; only CanAnswerLeaves tells them apart.
func TestLeafLowerBoundsMatchNodeLowerBound(t *testing.T) {
	withKernel(t, func(t *testing.T, k Kernel) {
		if CanAnswerLeaves(16) != (k == KernelSIMD) || CanAnswerLeaves(15) || CanAnswerLeaves(32) {
			t.Fatalf("%v: CanAnswerLeaves(16)=%v CanAnswerLeaves(15)=%v CanAnswerLeaves(32)=%v", k, CanAnswerLeaves(16), CanAnswerLeaves(15), CanAnswerLeaves(32))
		}
		if !simdAvailable {
			return // no kernel to run on this CPU
		}
		g := workload.New(13)
		for _, n := range []int{0, 5, 15, 16, 17, 40, 200} {
			for dist, keys := range map[string][]uint32{
				"dups":      g.SortedWithDuplicates(n, 4),
				"saturated": g.SortedWithDuplicates(n, max(n, 1)),
			} {
				probes := probesFor(keys)
				los := make([]int32, len(probes))
				his := make([]int32, len(probes))
				for lo := 0; lo <= n; lo++ {
					for width := 0; width <= 16 && lo+width <= n; width++ {
						for j := range probes {
							los[j], his[j] = int32(lo), int32(lo+width)
						}
						checkAnswerLeaves(t, fmt.Sprintf("%v %s n=%d window [%d,%d)", k, dist, n, lo, lo+width), keys, probes, los, his)
					}
				}
				if n < 16 {
					continue
				}
				// One group, a window per probe: whole, partial and empty.
				windows := [][2]int{{0, 16}, {n - 16, n}, {(n - 15) / 2, (n-15)/2 + 15}, {3, 3}, {n, n}, {1, 16}, {n - 15, n}, {(n - 16) / 2, (n-16)/2 + 16}}
				for j := range probes {
					w := windows[j%len(windows)]
					los[j], his[j] = int32(w[0]), int32(w[1])
				}
				checkAnswerLeaves(t, fmt.Sprintf("%v %s n=%d mixed group", k, dist, n), keys, probes, los, his)
			}
		}
	})
}

// checkAnswerLeaves runs AnswerLeaves for every op over one group and
// requires each probe to be answered as the oracle answers it, or handed
// back untouched exactly when the pass's rule says so: its window is not a
// whole 16-key leaf inside keys (the only windows the oracle is asked
// about), or its answer reaches past the leaf.
func checkAnswerLeaves(t *testing.T, what string, keys, probes []uint32, los, his []int32) {
	t.Helper()
	const untouched = -7
	n := len(probes)
	first, last, todo := make([]int32, n), make([]int32, n), make([]int32, n)
	for _, op := range []LeafOp{OpLowerBound, OpSearch, OpEqualRange} {
		for j := range first {
			first[j], last[j] = untouched, untouched
		}
		left := AnswerLeaves(op, keys, probes, los, his, first, last, todo)
		var want []int32
		for j, p := range probes {
			lo, hi := int(los[j]), int(his[j])
			if lo < 0 || hi != lo+16 || hi > len(keys) ||
				(op == OpSearch && keys[hi-1] < p) || (op == OpEqualRange && keys[hi-1] <= p) {
				want = append(want, int32(j))
				if first[j] != untouched || last[j] != untouched {
					t.Fatalf("%s op %d probe %d: handed back but wrote [%d,%d)", what, op, p, first[j], last[j])
				}
				continue
			}
			pos := lo + NodeLowerBoundScalar(keys[lo:hi], 16, p)
			wantFirst, wantLast := int32(pos), int32(untouched)
			switch op {
			case OpSearch:
				if pos == len(keys) || keys[pos] != p {
					wantFirst = -1
				}
			case OpEqualRange:
				end := pos
				for end < len(keys) && keys[end] == p {
					end++
				}
				wantLast = int32(end)
			}
			if first[j] != wantFirst || last[j] != wantLast {
				t.Fatalf("%s op %d window [%d,%d) probe %d: got (%d, %d), want (%d, %d)", what, op, lo, hi, p, first[j], last[j], wantFirst, wantLast)
			}
		}
		if !slices.Equal(todo[:left], want) {
			t.Fatalf("%s op %d: handed back %v, want %v", what, op, todo[:left], want)
		}
	}
}

// TestLeafKernelAnswersOnlyWholeLeaves pins the answer pass's window rule
// on windows no tree yields — negative, straddling the end, far past it, or
// of the wrong width: each is handed back and never loaded, whatever its
// bounds (lo is compared unsigned, so a negative one fails too).
func TestLeafKernelAnswersOnlyWholeLeaves(t *testing.T) {
	if !simdAvailable {
		t.Skip("no SIMD tier on this CPU")
	}
	keys := workload.New(17).SortedWithDuplicates(40, 4)
	n := len(keys)
	probes := probesFor(keys)
	windows := [][2]int{{0, 16}, {n - 16, n}, {n / 2, n/2 + 15}, {3, 3}, {1, 16}, {-16, 0}, {-5, 11}, {n - 15, n + 1}, {n, n + 16},
		{1 << 30, 1<<30 + 16}, {math.MinInt32, math.MinInt32 + 16}, {math.MaxInt32 - 16, math.MaxInt32}, {0, 32}, {4, -12}}
	los := make([]int32, len(probes))
	his := make([]int32, len(probes))
	for j := range probes {
		w := windows[j%len(windows)]
		los[j], his[j] = int32(w[0]), int32(w[1])
	}
	checkAnswerLeaves(t, "out-of-range windows", keys, probes, los, his)
}

// TestLeafLowerBoundsChecksSizes pins the panics of the two leaf passes: a
// group whose slices disagree in length, an EqualRange with no last, an op
// past the three, a leaf of no keys, a negative bottomEnd — and, on a CPU
// with no SIMD tier, any answer-pass call at all.
func TestLeafLowerBoundsChecksSizes(t *testing.T) {
	keys := make([]uint32, 32)
	two := func() []int32 { return make([]int32, 2) }
	probes := make([]uint32, 2)
	withKernel(t, func(t *testing.T, k Kernel) {
		calls := map[string]func(){
			"locate group size":   func() { LocateLeaves(keys, 16, 0, 32, 32, two(), two(), make([]int32, 3)) },
			"locate bottomEnd":    func() { LocateLeaves(keys, 16, 0, 32, -1, two(), two(), two()) },
			"locate leaf size":    func() { LocateLeaves(keys, 0, 0, 32, 32, two(), two(), two()) },
			"answer group size":   func() { AnswerLeaves(OpLowerBound, keys, probes, two(), two(), make([]int32, 3), nil, two()) },
			"answer windows":      func() { AnswerLeaves(OpSearch, keys, probes, two(), make([]int32, 1), two(), nil, two()) },
			"answer short todo":   func() { AnswerLeaves(OpSearch, keys, probes, two(), two(), two(), nil, make([]int32, 1)) },
			"equal range no last": func() { AnswerLeaves(OpEqualRange, keys, probes, two(), two(), two(), nil, two()) },
			"unknown op":          func() { AnswerLeaves(OpEqualRange+1, keys, probes, two(), two(), two(), two(), two()) },
		}
		if !simdAvailable {
			calls["answer without kernel"] = func() { AnswerLeaves(OpLowerBound, keys, probes, two(), two(), two(), nil, two()) }
		}
		for name, call := range calls {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v %s: expected a panic", k, name)
					}
				}()
				call()
			}()
		}
	})
}

// TestDescendLevelChecksSizes pins the once-per-call assertions the memory
// safety of the assembly pass rests on.
func TestDescendLevelChecksSizes(t *testing.T) {
	dir := make([]uint32, 3*16)
	for name, call := range map[string]func(){
		"short directory":  func() { DescendLevel(dir, 16, 16, 3, make([]uint32, 2), make([]int32, 2)) },
		"nodes/probes":     func() { DescendLevel(dir, 16, 16, 2, make([]uint32, 2), make([]int32, 3)) },
		"routing > m":      func() { DescendLevel(dir, 16, 18, 2, make([]uint32, 2), make([]int32, 2)) },
		"no routing slots": func() { DescendLevel(dir, 16, 1, 2, make([]uint32, 2), make([]int32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			call()
		}()
	}
	DescendLevel(nil, 16, 16, -1, []uint32{1}, []int32{0}) // no directory: nothing to descend
}

// TestDefaultKernelIsBestAvailable pins the init-time selection policy.
func TestDefaultKernelIsBestAvailable(t *testing.T) {
	// The test process may have been started with CSSIDX_NODESEARCH set (the
	// CI matrix legs do exactly that); in that case the active kernel must
	// honour it, otherwise it must be the best available tier.
	if name := kernelEnvValue(); name != "" {
		want, ok := ParseKernel(name)
		if ok && KernelAvailable(want) && defaultKernel != want {
			t.Fatalf("env %s=%s but default kernel is %v", EnvKernel, name, defaultKernel)
		}
		return
	}
	want := KernelScalar
	if KernelAvailable(KernelSIMD) {
		want = KernelSIMD
	}
	if defaultKernel != want {
		t.Fatalf("default kernel = %v, want %v", defaultKernel, want)
	}
}

func FuzzNodeLowerBoundTiers(f *testing.F) {
	f.Add(uint32(77), uint32(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint32(0), uint32(64), []byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add(^uint32(0), uint32(16), []byte{9, 9, 9, 9, 9, 9, 9, 9, 1, 2})
	f.Fuzz(func(t *testing.T, key uint32, seed uint32, raw []byte) {
		// Build a sorted window from the raw bytes (4 bytes per slot,
		// capped at 64 slots), then check every tier.
		m := len(raw) / 4
		if m == 0 {
			return
		}
		if m > 64 {
			m = 64
		}
		w := make([]uint32, m)
		for i := range w {
			w[i] = uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
		}
		// Sort the tiny window.
		for i := 1; i < m; i++ {
			for j := i; j > 0 && w[j-1] > w[j]; j-- {
				w[j-1], w[j] = w[j], w[j-1]
			}
		}
		want := refNodeLB(w, m, key)
		prev := ActiveKernel()
		defer SetKernel(prev)
		for _, k := range availableKernels() {
			SetKernel(k)
			if got := NodeLowerBound(w, m, key); got != want {
				t.Fatalf("%v: m=%d key=%d: got %d want %d (window %v)", k, m, key, got, want, w)
			}
		}
		if got := NodeLowerBoundScalar(w, m, key); got != want {
			t.Fatalf("oracle: m=%d key=%d: got %d want %d", m, key, got, want)
		}
	})
}

// --- per-tier benchmarks ----------------------------------------------------

func benchKernel(b *testing.B, k Kernel, m int) {
	if !KernelAvailable(k) {
		b.Skipf("%v unavailable", k)
	}
	prev := ActiveKernel()
	SetKernel(k)
	defer SetKernel(prev)
	g := workload.New(1)
	keys := g.SortedDistinct(m)
	probes := append(g.Lookups(keys, 4096), g.Misses(keys, 4096)...)
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += NodeLowerBound(keys, m, probes[i&8191])
	}
	sinkNS += s
}

var sinkNS int

func BenchmarkNodeSearchKernels(b *testing.B) {
	for _, m := range []int{7, 8, 15, 16, 31, 32, 63, 64} {
		for _, k := range []Kernel{KernelScalar, KernelSIMD} {
			b.Run(fmt.Sprintf("m=%d/%s", m, k), func(b *testing.B) { benchKernel(b, k, m) })
		}
	}
}

// BenchmarkDescendLevel prices one level pass of the batch descent on
// resident lines: 64-probe groups, every probe on its own node of a
// 4,096-node directory (256 KB), for both cache-line shapes under the
// scalar tier and each simd body.  ns/visit is one probe's node search
// plus its child arithmetic and prefetch.
func BenchmarkDescendLevel(b *testing.B) {
	const nodes, width = 4096, 64
	g := workload.New(3)
	starts := make([]int32, nodes)
	for i := range starts {
		starts[i] = int32(i * 97 % nodes) // 64 groups of 64 distinct nodes
	}
	probes := g.Misses(nil, nodes)
	prevKernel, prevBody := ActiveKernel(), levelPass512
	defer func() { SetKernel(prevKernel); levelPass512 = prevBody }()
	for _, fan := range []int{16, 17} {
		dir := mem.AlignedU32(nodes*16, mem.CacheLine)
		for d := 0; d < nodes; d++ {
			copy(dir[d*16:], g.SortedDistinct(fan-1))
		}
		for _, leg := range []struct {
			name   string
			kernel Kernel
			avx512 bool
		}{{"scalar", KernelScalar, false}, {"avx2", KernelSIMD, false}, {"avx512", KernelSIMD, true}} {
			b.Run(fmt.Sprintf("fan=%d/%s", fan, leg.name), func(b *testing.B) {
				if !SetKernel(leg.kernel) || (leg.avx512 && !avx512Available) {
					b.Skipf("%s unavailable on this host", leg.name)
				}
				levelPass512 = leg.avx512
				var group [width]int32
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := i * width % nodes
					copy(group[:], starts[lo:lo+width])
					DescendLevel(dir, 16, fan, nodes-1, probes[lo:lo+width], group[:])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/visit")
				sinkNS += int(group[0])
			})
		}
	}
}

func BenchmarkNodeSearchMulti16(b *testing.B) {
	for _, m := range []int{15, 16} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			g := workload.New(1)
			keys := g.SortedDistinct(m)
			probes := g.Lookups(keys, GroupWidth)
			var out [GroupWidth]int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NodeLowerBound16(keys, m, probes, out[:])
			}
			sinkNS += int(out[0])
		})
	}
}
