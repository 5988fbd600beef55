package simidx

import (
	"math"
	"testing"

	"cssidx/internal/analytic"
	"cssidx/internal/cachesim"
	"cssidx/internal/workload"
)

// TestModelMatchesSimulationComparisons cross-validates §5.1's closed-form
// comparison counts against the instruction-level counts of the simulator —
// two independent implementations of the same analysis.
func TestModelMatchesSimulationComparisons(t *testing.T) {
	const n = 2_000_000
	g := workload.New(90)
	keys := g.SortedUniform(n)
	probes := g.Lookups(keys, 20000)
	m := cachesim.UltraSparcII()

	p := analytic.DefaultParams()
	p.N = n
	rows := map[analytic.Method]analytic.TimeRow{}
	for _, r := range analytic.TimeModel(p) {
		rows[r.Method] = r
	}

	check := func(method analytic.Method, sim Sim, tolerance float64) {
		t.Helper()
		res := Run(sim, m, probes)
		gotCmps := float64(res.Cmps) / float64(res.Lookups)
		want := rows[method].TotalCmps
		if math.Abs(gotCmps-want) > tolerance*want {
			t.Errorf("%v: simulated %.2f cmps/lookup, model predicts %.2f", method, gotCmps, want)
		}
	}
	// Binary search: the model is exact up to rounding of log2 n and the
	// sequential tail.
	check(analytic.BinarySearch, NewBinarySearch(keys, cachesim.NewAddrAlloc()), 0.15)
	// CSS-trees: within-node binary search costs a handful more comparisons
	// than the hard-coded ideal the model assumes.
	check(analytic.FullCSS, NewFullCSS(keys, 16, cachesim.NewAddrAlloc()), 0.25)
	check(analytic.LevelCSS, NewLevelCSS(keys, 16, cachesim.NewAddrAlloc()), 0.25)
	check(analytic.BPlusTree, NewBPlusTree(keys, 16, cachesim.NewAddrAlloc()), 0.25)
}

// TestModelMatchesSimulationMissOrdering checks that the §5.1 *ranking* of
// cache misses (CSS < B+ < T-tree ≈ binary) holds in simulation, and that
// warm-cache simulation never exceeds the model's cold-start upper bound.
func TestModelMatchesSimulationMissOrdering(t *testing.T) {
	const n = 2_000_000
	g := workload.New(91)
	keys := g.SortedUniform(n)
	probes := g.Lookups(keys, 20000)
	m := cachesim.UltraSparcII()

	p := analytic.DefaultParams()
	p.N = n
	model := map[analytic.Method]float64{}
	for _, r := range analytic.TimeModel(p) {
		model[r.Method] = r.CacheMisses
	}

	miss := func(s Sim) float64 { return Run(s, m, probes).MissesPerLookup(1) }
	simBinary := miss(NewBinarySearch(keys, cachesim.NewAddrAlloc()))
	simFull := miss(NewFullCSS(keys, 16, cachesim.NewAddrAlloc()))
	simBP := miss(NewBPlusTree(keys, 16, cachesim.NewAddrAlloc()))
	simTT := miss(NewTTree(keys, 7, cachesim.NewAddrAlloc()))

	// Ranking (the substance of Figure 6's last column).
	if !(simFull < simBP && simBP < simBinary) {
		t.Errorf("miss ranking violated: css=%.2f bp=%.2f binary=%.2f", simFull, simBP, simBinary)
	}
	if simTT < simBinary*0.5 {
		t.Errorf("T-tree misses %.2f far below binary %.2f; §3.3 says they are comparable", simTT, simBinary)
	}

	// Cold-start model is an upper bound on the warm simulated run.
	for method, sim := range map[analytic.Method]float64{
		analytic.BinarySearch: simBinary,
		analytic.FullCSS:      simFull,
		analytic.BPlusTree:    simBP,
	} {
		if sim > model[method]+1 {
			t.Errorf("%v: simulated %.2f misses/lookup exceeds cold-start model %.2f", method, sim, model[method])
		}
	}
}

// TestSimulatedCrossoverInCache reproduces Figure 10's left edge: below the
// cache size the methods bunch together; past it they spread by their miss
// profiles — the spread at 2M keys must be far wider than at 4k keys.
func TestSimulatedCrossoverInCache(t *testing.T) {
	g := workload.New(92)
	m := cachesim.UltraSparcII()
	spread := func(n int) float64 {
		keys := g.SortedUniform(n)
		probes := g.Lookups(keys, 20000)
		fast := Run(NewFullCSS(keys, 16, cachesim.NewAddrAlloc()), m, probes).Seconds
		slow := Run(NewBinarySearch(keys, cachesim.NewAddrAlloc()), m, probes).Seconds
		return slow / fast
	}
	small := spread(4000)
	large := spread(2_000_000)
	if large < small*1.5 {
		t.Errorf("spread should widen past cache size: small=%.2fx large=%.2fx", small, large)
	}
	if large < 2 {
		t.Errorf("at 2M keys CSS should beat binary by >2x (paper), got %.2fx", large)
	}
}

// TestModernCacheCompressesTheGap closes the loop on the host-vs-paper
// divergence recorded in README "Model vs measured": on a simulated 2020s
// server whose L3 swallows the whole array, the CSS-vs-binary factor shrinks
// toward the host's measured ~1.5x, while on the paper's Ultra Sparc II it
// stays >2x.  The CSS advantage is proportional to the miss penalty — the
// paper's thesis, demonstrated from both ends.
func TestModernCacheCompressesTheGap(t *testing.T) {
	const n = 2_000_000
	g := workload.New(93)
	keys := g.SortedUniform(n)
	probes := g.Lookups(keys, 20000)

	ratio := func(m *cachesim.Machine) float64 {
		bin := Run(NewBinarySearch(keys, cachesim.NewAddrAlloc()), m, probes).Seconds
		css := Run(NewFullCSS(keys, 16, cachesim.NewAddrAlloc()), m, probes).Seconds
		return bin / css
	}
	ultra := ratio(cachesim.UltraSparcII())
	modern := ratio(cachesim.ModernServer())
	if ultra < 2 {
		t.Errorf("ultra gap %.2fx, want >2x (the paper's result)", ultra)
	}
	if modern >= ultra-0.3 {
		t.Errorf("modern gap %.2fx should sit clearly below ultra's %.2fx", modern, ultra)
	}
}
