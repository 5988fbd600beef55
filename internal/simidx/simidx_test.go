package simidx

import (
	"sort"
	"testing"

	"cssidx/internal/cachesim"
	"cssidx/internal/mem"
	"cssidx/internal/workload"
)

func refLowerBound(a []uint32, key uint32) int {
	return sort.Search(len(a), func(i int) bool { return a[i] >= key })
}

// orderedSims builds every ordered simulated index over keys.
func orderedSims(keys []uint32) map[string]Sim {
	alloc := cachesim.NewAddrAlloc()
	return map[string]Sim{
		"binary": NewBinarySearch(keys, alloc),
		"interp": NewInterpolationSearch(keys, alloc),
		"full":   NewFullCSS(keys, 16, alloc),
		"level":  NewLevelCSS(keys, 16, alloc),
		"bplus":  NewBPlusTree(keys, 16, alloc),
		"ttree":  NewTTree(keys, 7, alloc),
		"bst":    NewBST(keys, alloc),
	}
}

func TestSimsMatchReferenceLowerBound(t *testing.T) {
	g := workload.New(80)
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000, 12345} {
		keys := g.SortedDistinct(n)
		probes := append(g.Lookups(keys, 300), g.Misses(keys, 300)...)
		probes = append(probes, 0, ^uint32(0))
		for name, s := range orderedSims(keys) {
			for _, k := range probes {
				got := s.Probe(nil, k).Index
				want := refLowerBound(keys, k)
				if got != want {
					t.Fatalf("%s n=%d: Probe(%d).Index=%d, want %d", name, n, k, got, want)
				}
			}
		}
	}
}

func TestSimsMatchRealImplementations(t *testing.T) {
	g := workload.New(81)
	keys := g.SortedWithDuplicates(20000, 4)
	alloc := cachesim.NewAddrAlloc()
	probes := append(g.Lookups(keys, 2000), g.Misses(keys, 2000)...)

	full := NewFullCSS(keys, 16, alloc)
	level := NewLevelCSS(keys, 16, alloc)
	bp := NewBPlusTree(keys, 16, alloc)
	tt := NewTTree(keys, 7, alloc)
	b := NewBST(keys, alloc)
	for _, k := range probes {
		if got, want := full.Probe(nil, k).Index, full.RealLowerBound(k); got != want {
			t.Fatalf("full css: sim %d real %d (key %d)", got, want, k)
		}
		if got, want := level.Probe(nil, k).Index, level.RealLowerBound(k); got != want {
			t.Fatalf("level css: sim %d real %d (key %d)", got, want, k)
		}
		if got, want := bp.Probe(nil, k).Index, bp.RealLowerBound(k); got != want {
			t.Fatalf("b+tree: sim %d real %d (key %d)", got, want, k)
		}
		if got, want := tt.Probe(nil, k).Index, tt.RealLowerBound(k); got != want {
			t.Fatalf("t-tree: sim %d real %d (key %d)", got, want, k)
		}
		if got, want := b.Probe(nil, k).Index, b.RealLowerBound(k); got != want {
			t.Fatalf("bst: sim %d real %d (key %d)", got, want, k)
		}
	}
}

func TestHashSimMatchesReal(t *testing.T) {
	g := workload.New(82)
	keys := g.SortedDistinct(10000)
	alloc := cachesim.NewAddrAlloc()
	hs := NewHash(keys, 1<<12, mem.CacheLine, alloc)
	probes := append(g.Lookups(keys, 2000), g.Misses(keys, 2000)...)
	for _, k := range probes {
		pr := hs.Probe(nil, k)
		rid, ok := hs.RealSearch(k)
		if ok != (pr.Index >= 0) {
			t.Fatalf("hash sim found=%v real found=%v (key %d)", pr.Index >= 0, ok, k)
		}
		if ok && int(rid) != pr.Index {
			t.Fatalf("hash sim rid %d real %d", pr.Index, rid)
		}
	}
}

func TestCSSTreeFewerMissesThanBinarySearch(t *testing.T) {
	// The paper's core claim, in simulation: on a large array the CSS-tree
	// takes a fraction of binary search's cache misses per lookup.
	g := workload.New(83)
	keys := g.SortedDistinct(2_000_000)
	probes := g.Lookups(keys, 20000)
	m := cachesim.UltraSparcII()

	alloc := cachesim.NewAddrAlloc()
	binRes := Run(NewBinarySearch(keys, alloc), m, probes)
	cssRes := Run(NewFullCSS(keys, 16, cachesim.NewAddrAlloc()), m, probes)

	binMiss := binRes.MissesPerLookup(1)
	cssMiss := cssRes.MissesPerLookup(1)
	if cssMiss >= binMiss/2 {
		t.Errorf("L2 misses/lookup: css=%.2f binary=%.2f; want css < binary/2", cssMiss, binMiss)
	}
	if cssRes.Seconds >= binRes.Seconds/2 {
		t.Errorf("modelled time: css=%.3fs binary=%.3fs; paper says >2x faster", cssRes.Seconds, binRes.Seconds)
	}
}

// TestSTLBWalksPerProbe reconciles the page walk with the model: 100K
// uniform probes of a 16M-key level tree — probe_uniform's shape, a 64 MB
// key array under a 4 MB directory — replayed through a 2,048-entry STLB.
// On 4 KiB pages the tree spans 17K pages and nearly every probe walks at
// least once; on 2 MiB pages it spans about 35, and only first touches walk.
func TestSTLBWalksPerProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16M-key tree (68 MB)")
	}
	keys := make([]uint32, 16_000_000)
	for i := range keys {
		keys[i] = uint32(i) << 8
	}
	probes := workload.New(87).Lookups(keys, 100_000)
	sim := NewLevelCSS(keys, 16, cachesim.NewAddrAlloc())
	for _, c := range []struct {
		page   int
		lo, hi float64
	}{{4 << 10, 0.8, 1e9}, {2 << 20, 0, 0.05}} {
		walks := Run(sim, cachesim.STLB(c.page), probes).MissesPerLookup(0)
		t.Logf("%d KiB pages: %.4f walks per probe", c.page>>10, walks)
		if walks < c.lo || walks >= c.hi {
			t.Errorf("%d KiB pages: %.4f walks per probe, want in [%g, %g)", c.page>>10, walks, c.lo, c.hi)
		}
	}
}

func TestTTreeTracksBinarySearchMisses(t *testing.T) {
	// §3.3: "T-Trees do not provide any better cache behavior than binary
	// search" — per-lookup misses within ~35% of each other.
	g := workload.New(84)
	keys := g.SortedDistinct(2_000_000)
	probes := g.Lookups(keys, 20000)
	m := cachesim.UltraSparcII()
	binMiss := Run(NewBinarySearch(keys, cachesim.NewAddrAlloc()), m, probes).MissesPerLookup(1)
	ttMiss := Run(NewTTree(keys, 7, cachesim.NewAddrAlloc()), m, probes).MissesPerLookup(1)
	lo, hi := binMiss*0.5, binMiss*1.5
	if ttMiss < lo || ttMiss > hi {
		t.Errorf("T-tree L2 misses/lookup %.2f not within 50%% of binary search %.2f", ttMiss, binMiss)
	}
}

func TestBPlusBetweenCSSAndBinary(t *testing.T) {
	g := workload.New(85)
	keys := g.SortedDistinct(2_000_000)
	probes := g.Lookups(keys, 20000)
	m := cachesim.UltraSparcII()
	bin := Run(NewBinarySearch(keys, cachesim.NewAddrAlloc()), m, probes).Seconds
	bp := Run(NewBPlusTree(keys, 16, cachesim.NewAddrAlloc()), m, probes).Seconds
	css := Run(NewFullCSS(keys, 16, cachesim.NewAddrAlloc()), m, probes).Seconds
	if !(css < bp && bp < bin) {
		t.Errorf("want css < b+tree < binary, got css=%.3f bp=%.3f bin=%.3f", css, bp, bin)
	}
}

func TestHashFastestWithBigDirectory(t *testing.T) {
	g := workload.New(86)
	keys := g.SortedDistinct(1_000_000)
	probes := g.Lookups(keys, 20000)
	m := cachesim.UltraSparcII()
	cssSim := NewFullCSS(keys, 16, cachesim.NewAddrAlloc())
	hashSim := NewHash(keys, 1<<19, mem.CacheLine, cachesim.NewAddrAlloc())
	css := Run(cssSim, m, probes)
	hs := Run(hashSim, m, probes)
	if hs.Seconds >= css.Seconds {
		t.Errorf("hash %.3fs should beat css %.3fs", hs.Seconds, css.Seconds)
	}
	if hashSim.SpaceBytes() < 4*cssSim.SpaceBytes() {
		t.Errorf("hash space %d should dwarf css directory %d", hashSim.SpaceBytes(), cssSim.SpaceBytes())
	}
}

func TestSmallArrayAllMethodsConverge(t *testing.T) {
	// Figure 10: "when all the data can fit in cache, there is hardly any
	// difference among all the algorithms."  With n=1000 (4 KB) everything
	// is cache-resident; per-lookup time must be within one order of
	// magnitude across ordered methods.
	g := workload.New(87)
	keys := g.SortedDistinct(1000)
	probes := g.Lookups(keys, 20000)
	m := cachesim.UltraSparcII()
	times := map[string]float64{}
	for name, s := range orderedSims(keys) {
		times[name] = Run(s, m, probes).SecondsPerLookup()
	}
	min, max := times["binary"], times["binary"]
	for _, v := range times {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max > 10*min {
		t.Errorf("in-cache spread too wide: %v", times)
	}
}

func TestRunAccountsLookups(t *testing.T) {
	g := workload.New(88)
	keys := g.SortedDistinct(5000)
	probes := g.Lookups(keys, 777)
	res := Run(NewBinarySearch(keys, cachesim.NewAddrAlloc()), cachesim.UltraSparcII(), probes)
	if res.Lookups != 777 {
		t.Errorf("lookups=%d", res.Lookups)
	}
	if res.Cmps <= 0 || res.Seconds <= 0 {
		t.Errorf("empty accounting: %+v", res)
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestWarmCacheBenefitsCSSMost(t *testing.T) {
	// §5.1: "Since CSS-trees have fewer levels than all the other methods,
	// it will also gain the most benefit from a warm cache."  Repeated
	// lookups of one key: css should approach zero misses.
	g := workload.New(89)
	keys := g.SortedDistinct(1_000_000)
	m := cachesim.UltraSparcII()
	css := NewFullCSS(keys, 16, cachesim.NewAddrAlloc())
	h := cachesim.New(m)
	css.Probe(h, keys[500000])
	h.Reset()
	for i := 0; i < 100; i++ {
		css.Probe(h, keys[500000])
	}
	s := h.Stats()
	if s.Misses[1] != 0 {
		t.Errorf("warm repeated lookup still misses L2: %d", s.Misses[1])
	}
}
