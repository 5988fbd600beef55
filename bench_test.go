// Benchmarks regenerating the paper's tables and figures with testing.B.
// One benchmark (family) per artifact:
//
//	BenchmarkFig9Build          — Figure 9: CSS-tree build time vs array size
//	BenchmarkFig10VaryN         — Figures 10/11: lookup time vs array size
//	BenchmarkFig12VaryNode      — Figures 12/13: lookup time vs node size
//	BenchmarkFig14SpaceTime     — Figure 2/14: space (reported metric) + time
//	BenchmarkTable1CostModel    — Figure 6/Table 1: analytic model evaluation
//	BenchmarkAblation*          — design-choice ablations (README "Node-search dispatch")
//	BenchmarkJoin               — §2.2 indexed nested-loop join
//
// Wall-clock numbers land wherever the host CPU puts them; the reproduction
// target is the *shape* (README "Model vs measured" reconciles the host's
// numbers with the paper's miss counts; `cssbench -list` is the experiment
// list, under README "Commands").  The deterministic,
// paper-machine versions of figs 10–13 come from `cssbench -run figNN`.
package cssidx_test

import (
	"fmt"
	"testing"

	"cssidx"
	"cssidx/internal/bench"
	"cssidx/internal/csstree"
	"cssidx/internal/mmdb"
	"cssidx/internal/workload"
)

// benchSink defeats dead-code elimination.
var benchSink int

// probeSet builds keys plus a random matching lookup stream.
func probeSet(n, lookups int) (keys, probes []uint32) {
	g := workload.New(1)
	keys = g.SortedUniform(n)
	probes = g.Lookups(keys, lookups)
	return keys, probes
}

// runLookups cycles b.N lookups through the probe stream.
func runLookups(b *testing.B, search func(uint32) int, probes []uint32) {
	b.Helper()
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += search(probes[i%len(probes)])
	}
	benchSink += s
}

// --- Figure 9: build time -----------------------------------------------------

func BenchmarkFig9Build(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000, 5_000_000} {
		g := workload.New(1)
		keys := g.SortedUniform(n)
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += csstree.BuildFull(keys, 16).SpaceBytes()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mkeys/s")
		})
		b.Run(fmt.Sprintf("level/n=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += csstree.BuildLevel(keys, 16).SpaceBytes()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mkeys/s")
		})
	}
}

// --- Figures 10/11: vary array size --------------------------------------------

func BenchmarkFig10VaryN(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000, 10_000_000} {
		if testing.Short() && n > 1_000_000 {
			continue
		}
		keys, probes := probeSet(n, 100_000)
		for _, kind := range cssidx.Kinds() {
			idx := cssidx.New(kind, keys, cssidx.Options{})
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				runLookups(b, idx.Search, probes)
			})
		}
	}
}

// --- Figures 12/13: vary node size ----------------------------------------------

func BenchmarkFig12VaryNode(b *testing.B) {
	keys, probes := probeSet(1_000_000, 100_000)
	for _, nodeBytes := range []int{32, 64, 96, 128, 256, 512} {
		for _, kind := range []cssidx.Kind{
			cssidx.KindTTree, cssidx.KindBPlusTree, cssidx.KindFullCSS, cssidx.KindLevelCSS,
		} {
			if kind == cssidx.KindLevelCSS && nodeBytes&(nodeBytes-1) != 0 {
				continue // level CSS-trees need power-of-two nodes
			}
			idx := cssidx.New(kind, keys, cssidx.Options{NodeBytes: nodeBytes})
			b.Run(fmt.Sprintf("%s/node=%dB", kind, nodeBytes), func(b *testing.B) {
				runLookups(b, idx.Search, probes)
				b.ReportMetric(float64(idx.SpaceBytes()), "space-bytes")
			})
		}
	}
}

// --- Figure 2/14: space/time ------------------------------------------------------

func BenchmarkFig14SpaceTime(b *testing.B) {
	keys, probes := probeSet(2_000_000, 100_000)
	for _, kind := range cssidx.Kinds() {
		idx := cssidx.New(kind, keys, cssidx.Options{})
		b.Run(kind.String(), func(b *testing.B) {
			runLookups(b, idx.Search, probes)
			space := idx.SpaceBytes()
			if kind == cssidx.KindHash {
				space += 4 * len(keys) // ordered RID list kept besides the hash (Figure 7)
			}
			b.ReportMetric(float64(space), "space-bytes")
		})
	}
}

// --- Figure 6 / Table 1: the analytic model itself ---------------------------------

func BenchmarkTable1CostModel(b *testing.B) {
	cfg := bench.Config{Quick: true, Lookups: 1000, Repeats: 1}
	e, _ := bench.Lookup("fig6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// --- Ablations ----------------------------------------------------------------------

// BenchmarkAblationGenericNodeSearch quantifies §6.2's code-specialisation
// claim: the generic (loop) within-node search vs the hard-coded unrolled
// one.  The paper measured the generic version 20–45% slower.
func BenchmarkAblationGenericNodeSearch(b *testing.B) {
	keys, probes := probeSet(5_000_000, 100_000)
	full := csstree.BuildFull(keys, 16)
	level := csstree.BuildLevel(keys, 16)
	b.Run("full/specialised", func(b *testing.B) { runLookups(b, full.LowerBound, probes) })
	b.Run("full/generic", func(b *testing.B) { runLookups(b, full.LowerBoundGeneric, probes) })
	b.Run("level/specialised", func(b *testing.B) { runLookups(b, level.LowerBound, probes) })
	b.Run("level/generic", func(b *testing.B) { runLookups(b, level.LowerBoundGeneric, probes) })
}

// BenchmarkAblationNodeLineAlignment reproduces the Figure 12 "bump": a
// 96-byte node (24 slots) straddles cache lines and needs multiply/divide
// child arithmetic, where 64- and 128-byte nodes divide evenly.
func BenchmarkAblationNodeLineAlignment(b *testing.B) {
	keys, probes := probeSet(5_000_000, 100_000)
	for _, m := range []int{16, 24, 32} {
		tr := csstree.BuildFull(keys, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			runLookups(b, tr.LowerBound, probes)
		})
	}
}

// BenchmarkAblationFullVsLevel isolates §4.2's trade: level trees do fewer
// comparisons, full trees touch fewer nodes.  The paper saw level trees up
// to 8% faster.
func BenchmarkAblationFullVsLevel(b *testing.B) {
	keys, probes := probeSet(10_000_000, 100_000)
	full := csstree.BuildFull(keys, 16)
	level := csstree.BuildLevel(keys, 16)
	b.Run("full", func(b *testing.B) { runLookups(b, full.LowerBound, probes) })
	b.Run("level", func(b *testing.B) { runLookups(b, level.LowerBound, probes) })
}

// --- §2.2: indexed nested-loop join ---------------------------------------------------

func BenchmarkJoin(b *testing.B) {
	g := workload.New(3)
	innerKeys := g.SortedUniform(100_000)
	outerVals := g.Lookups(innerKeys, 200_000)

	inner := mmdb.NewTable("inner")
	if err := inner.AddColumn("k", innerKeys); err != nil {
		b.Fatal(err)
	}
	outer := mmdb.NewTable("outer")
	if err := outer.AddColumn("k", outerVals); err != nil {
		b.Fatal(err)
	}
	for _, kind := range []cssidx.Kind{cssidx.KindLevelCSS, cssidx.KindBPlusTree, cssidx.KindTTree, cssidx.KindHash} {
		ix, err := inner.BuildIndex("k", kind, cssidx.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := mmdb.JoinWith(outer, "k", ix, mmdb.JoinOptions{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += n
			}
			b.ReportMetric(float64(outer.Rows())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobes/s")
		})
	}
}
