package bench

// runNodeSearch is the node-search kernel ablation: the dispatch tiers of
// internal/binsearch (scalar branch-free ladder / AVX2 vector) measured
// per node visit across node sizes and probe
// distributions, the 16-wide multi-probe kernel against the single-probe
// baseline, the fused level pass against the per-probe calls it replaced,
// and the tiers under a full tree-descent batch — the
// machine-readable record (BENCH_nodesearch.json) behind the "True SIMD
// node search" ROADMAP item.
//
// Shape target: on AVX2 hosts the simd tier never loses to the bflb
// scalar ladder and the multi-probe kernel answers a 16-slot node visit
// several times faster than the scalar baseline (the lockstep engine's
// unit of work); the scalar ladder is the portable tier for architectures
// without a vector kernel.

import (
	"fmt"
	"io"

	"cssidx"
	"cssidx/internal/binsearch"
	"cssidx/internal/mem"
	"cssidx/internal/workload"
)

// nodeSearchSizes are the specialised node sizes the trees use: full-tree
// slots (2ᵗ) and level-tree routing windows (2ᵗ−1).
var nodeSearchSizes = []int{7, 8, 15, 16, 31, 32, 63, 64}

// nodeSearchKernels returns the tiers available on this host.
func nodeSearchKernels() []binsearch.Kernel {
	ks := []binsearch.Kernel{binsearch.KernelScalar}
	if binsearch.KernelAvailable(binsearch.KernelSIMD) {
		ks = append(ks, binsearch.KernelSIMD)
	}
	return ks
}

func runNodeSearch(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	g := workload.New(cfg.Seed)
	prev := binsearch.ActiveKernel()
	defer binsearch.SetKernel(prev)

	iters := 1 << 21
	if cfg.Quick {
		iters = 1 << 16
	}

	if cfg.Recorder != nil {
		cfg.Recorder.SetContext("nodesearch_default_kernel", binsearch.ActiveKernel().String())
		cfg.Recorder.SetContext("nodesearch_simd_available", binsearch.KernelAvailable(binsearch.KernelSIMD))
	}
	fmt.Fprintf(w, "node-search kernel ablation: default dispatch %q, simd available %v\n\n",
		binsearch.ActiveKernel(), binsearch.KernelAvailable(binsearch.KernelSIMD))

	// --- single-probe dispatch: tier × node size × distribution ------------
	fmt.Fprintln(w, "single-probe NodeLowerBound (ns per node visit; speedup vs the scalar bflb ladder)")
	t := newTable(w)
	t.row("node slots", "workload", "scalar ns", "simd ns", "best speedup")
	for _, m := range nodeSearchSizes {
		nodeKeys := g.SortedDistinct(m)
		dists := []struct {
			name   string
			probes []uint32
		}{
			{"uniform", append(g.Lookups(nodeKeys, 4096), g.Misses(nodeKeys, 4096)...)},
			{"zipf s=1.2", g.ZipfLookups(g.Shuffled(nodeKeys), 8192, 1.2)},
		}
		for _, d := range dists {
			perTier := map[binsearch.Kernel]float64{}
			for _, kern := range nodeSearchKernels() {
				binsearch.SetKernel(kern)
				sec := Measure(func() {
					s := 0
					for i := 0; i < iters; i++ {
						s += binsearch.NodeLowerBound(nodeKeys, m, d.probes[i&8191])
					}
					Sink += s
				}, cfg.Repeats)
				perTier[kern] = sec / float64(iters) * 1e9
				cfg.record(Record{
					Experiment: "nodesearch",
					Params: map[string]any{
						"surface": "single", "node_slots": m,
						"workload": d.name, "kernel": kern.String(),
					},
					Metric: "per_visit", Value: perTier[kern], Unit: "ns",
				})
			}
			simdCell := "-"
			best := perTier[binsearch.KernelScalar]
			if v, ok := perTier[binsearch.KernelSIMD]; ok {
				simdCell = fmt.Sprintf("%.2f", v)
				if v < best {
					best = v
				}
			}
			t.row(fmt.Sprintf("%d", m), d.name,
				fmt.Sprintf("%.2f", perTier[binsearch.KernelScalar]),
				simdCell,
				fmt.Sprintf("%.2fx", perTier[binsearch.KernelScalar]/best))
		}
	}
	t.flush()

	// --- multi-probe kernel: one node, a 16-wide lockstep group ------------
	// NodeLowerBound16 against 16 independent bflb calls.  Nothing in the
	// engine calls it since the level pass (below) replaced the per-probe
	// descent; it stays exported and measured for the end-to-end benchmark.
	fmt.Fprintln(w, "\n16-wide multi-probe kernel vs 16 scalar calls (ns per probe-node visit)")
	tm := newTable(w)
	tm.row("node slots", "workload", "scalar ns", "multi ns", "speedup")
	for _, m := range nodeSearchSizes {
		nodeKeys := g.SortedDistinct(m)
		dists := []struct {
			name   string
			probes []uint32
		}{
			{"uniform", append(g.Lookups(nodeKeys, 4096), g.Misses(nodeKeys, 4096)...)},
			{"zipf s=1.2", g.ZipfLookups(g.Shuffled(nodeKeys), 8192, 1.2)},
		}
		for _, d := range dists {
			group := d.probes[:16]
			out := make([]int32, 16)
			gIters := iters / 16
			binsearch.SetKernel(binsearch.KernelScalar)
			scalar := Measure(func() {
				s := 0
				for i := 0; i < gIters; i++ {
					for j := 0; j < 16; j++ {
						s += binsearch.NodeLowerBound(nodeKeys, m, group[j])
					}
				}
				Sink += s
			}, cfg.Repeats)
			binsearch.SetKernel(prev) // best available tier drives the multi kernel
			multi := Measure(func() {
				for i := 0; i < gIters; i++ {
					binsearch.NodeLowerBound16(nodeKeys, m, group, out)
				}
				Sink += int(out[0])
			}, cfg.Repeats)
			visits := float64(gIters) * 16
			scalarNs := scalar / visits * 1e9
			multiNs := multi / visits * 1e9
			tm.row(fmt.Sprintf("%d", m), d.name,
				fmt.Sprintf("%.2f", scalarNs), fmt.Sprintf("%.2f", multiNs),
				fmt.Sprintf("%.2fx", scalarNs/multiNs))
			// The baseline is 16 independent scalar calls, labelled
			// distinctly from the multi kernel's tier so the two records
			// stay distinguishable even when the active tier IS scalar
			// (non-AVX2 hosts, CSSIDX_NODESEARCH=scalar).
			cfg.record(Record{
				Experiment: "nodesearch",
				Params: map[string]any{
					"surface": "multi16", "node_slots": m,
					"workload": d.name, "kernel": "scalar-calls",
				},
				Metric: "per_visit", Value: scalarNs, Unit: "ns",
			})
			cfg.record(Record{
				Experiment: "nodesearch",
				Params: map[string]any{
					"surface": "multi16", "node_slots": m,
					"workload": d.name, "kernel": "multi-" + binsearch.ActiveKernel().String(),
				},
				Metric: "per_visit", Value: multiNs, Unit: "ns",
			})
		}
	}
	tm.flush()

	// --- level pass: a lockstep group on 64 different resident nodes --------
	// What one level of the batch descent costs once the lines are in L1:
	// 64 NodeLowerBound calls plus the child arithmetic — the per-probe
	// loop the descent used to run — against one DescendLevel call.  Under
	// simd the cache-line shapes run the fused assembly pass; the other
	// tiers run the portable loop, i.e. the same calls from inside the
	// package.
	fmt.Fprintln(w, "\nlevel pass, 64 probes on 64 different resident nodes (ns per probe-node visit)")
	td := newTable(w)
	td.row("node", "kernel", "64 calls ns", "fused pass ns", "speedup")
	for _, shape := range []struct {
		name   string
		m, fan int
	}{{"level 15/16", 16, 16}, {"full 16/17", 16, 17}} {
		const width = 64
		routing := shape.fan - 1
		// Root, its children and theirs: an L1-resident directory whose
		// deepest level holds more than 64 nodes.
		internal := 1 + shape.fan + shape.fan*shape.fan
		lNode := internal - 1
		dir := mem.AlignedU32(internal*shape.m, mem.CacheLine) // one node per line, as the trees lay them
		for d := 0; d < internal; d++ {
			copy(dir[d*shape.m:], g.SortedDistinct(routing))
		}
		probes := g.Misses(nil, width)
		var start, nodes [width]int32
		for j := range start {
			start[j] = int32(1 + shape.fan + j)
		}
		passes := iters / width
		for _, kern := range nodeSearchKernels() {
			binsearch.SetKernel(kern)
			calls := Measure(func() {
				for i := 0; i < passes; i++ {
					nodes = start
					for j, p := range probes {
						d := int(nodes[j])
						base := d * shape.m
						nodes[j] = int32(d*shape.fan + 1 + binsearch.NodeLowerBound(dir[base:base+routing], routing, p))
					}
				}
				Sink += int(nodes[0])
			}, cfg.Repeats)
			fused := Measure(func() {
				for i := 0; i < passes; i++ {
					nodes = start
					binsearch.DescendLevel(dir, shape.m, shape.fan, lNode, probes, nodes[:])
				}
				Sink += int(nodes[0])
			}, cfg.Repeats)
			visits := float64(passes) * width
			callsNs, fusedNs := calls/visits*1e9, fused/visits*1e9
			td.row(shape.name, kern.String(),
				fmt.Sprintf("%.2f", callsNs), fmt.Sprintf("%.2f", fusedNs),
				fmt.Sprintf("%.2fx", callsNs/fusedNs))
			for _, v := range []struct {
				variant string
				ns      float64
			}{{"calls", callsNs}, {"fused", fusedNs}} {
				cfg.record(Record{
					Experiment: "nodesearch",
					Params: map[string]any{
						"surface": "descend", "node_slots": routing,
						"kernel": kern.String(), "variant": v.variant,
					},
					Metric: "per_visit", Value: v.ns, Unit: "ns",
				})
			}
		}
	}
	td.flush()
	binsearch.SetKernel(prev)

	// --- tree-level: the tiers under a full lockstep batch descent ---------
	n := 1_000_000
	if cfg.Quick {
		n = 100_000
	}
	keys := g.SortedUniform(n)
	level := cssidx.NewLevelCSS(keys, cssidx.DefaultNodeBytes)
	batched := cssidx.AsBatchOrdered(level)
	probes := g.Lookups(keys, cfg.Lookups)
	out := make([]int32, len(probes))
	fmt.Fprintf(w, "\nlevel CSS-tree LowerBoundBatch over n=%d keys, %d uniform probes, per tier\n", n, len(probes))
	tt := newTable(w)
	tt.row("kernel", "Mprobes/s", "vs scalar")
	var scalarSec float64
	for _, kern := range nodeSearchKernels() {
		binsearch.SetKernel(kern)
		sec := Measure(func() {
			batched.LowerBoundBatch(probes, out)
			Sink += int(out[0])
		}, cfg.Repeats)
		if kern == binsearch.KernelScalar {
			scalarSec = sec
		}
		tt.row(kern.String(),
			fmt.Sprintf("%.2f", float64(len(probes))/sec/1e6),
			fmt.Sprintf("%.2fx", scalarSec/sec))
		cfg.record(Record{
			Experiment: "nodesearch",
			Params:     map[string]any{"surface": "tree-batch", "n": n, "kernel": kern.String()},
			Metric:     "throughput", Value: float64(len(probes)) / sec / 1e6, Unit: "Mprobes/s",
		})
	}
	tt.flush()

	fmt.Fprintln(w, "\nshape target: simd never loses to the scalar ladder; under simd the fused level")
	fmt.Fprintln(w, "pass — the batch engine's unit of work — costs a fraction of the 64 calls it")
	fmt.Fprintln(w, "replaced; the multi-probe kernel (benchmark-only since the level pass) answers a")
	fmt.Fprintln(w, "16-slot visit several times faster than 16 scalar calls")
	return nil
}
