package main

import (
	"slices"
	"time"

	"cssidx/internal/binsearch"
	"cssidx/internal/cachesim"
	"cssidx/internal/csstree"
	"cssidx/internal/domain"
	"cssidx/internal/simidx"
	"cssidx/internal/sortu32"
)

// Layer isolation: after the traced replay, each layer on the workload's
// path is timed alone, through its public functions, on the workload's own
// keys and probes — one span each.  These are the numbers a change to one
// layer is expected to move first; README.md's table says which end-to-end
// metric each should then move.

// nodeSlots is the CSS-tree node size every workload uses: one 64-byte
// cache line of 4-byte keys.
const nodeSlots = 16

var sink int

// spanned runs f inside a root span of the given layer and returns f's
// duration in ns.
func spanned(tr *tracer, layer, name string, f func()) float64 {
	id := tr.begin(0, layer, name, -1)
	start := time.Now()
	f()
	ns := float64(time.Since(start).Nanoseconds())
	tr.end(id)
	return ns
}

// isolateCSSTree measures the tree kernels on one goroutine: build, the
// lockstep batch descent and the scalar descent, the directory's space, and
// the cache simulator's exact last-level miss count for the same probes.  It
// returns the built tree and the measured ns per batched probe.
func isolateCSSTree(tr *tracer, res *result, keys, probes []uint32, batch int) (*csstree.Level, float64) {
	var t *csstree.Level
	builds := make([]float64, 3)
	for i := range builds {
		builds[i] = spanned(tr, "csstree", "BuildLevel", func() { t = csstree.BuildLevel(keys, nodeSlots) }) / 1e6
	}
	res.put("csstree.build_ms", "ms", median(builds), len(builds))

	n := len(probes) / batch * batch
	out := make([]int32, batch)
	t.SearchBatch(probes[:batch], out) // warm the directory's top levels
	batchNs := spanned(tr, "csstree", "Level.SearchBatch", func() {
		for lo := 0; lo < n; lo += batch {
			t.SearchBatch(probes[lo:lo+batch], out)
		}
	}) / float64(n)
	res.put("csstree.batch_ns_per_probe", "ns", batchNs, n)

	scalar := probes[:min(len(probes), 1_000_000)]
	scalarNs := spanned(tr, "csstree", "Level.Search", func() {
		for _, k := range scalar {
			sink += t.Search(k)
		}
	}) / float64(len(scalar))
	res.put("csstree.scalar_ns_per_probe", "ns", scalarNs, len(scalar))
	res.put("csstree.dir_bytes_per_key", "B", float64(t.SpaceBytes())/float64(len(keys)), len(keys))

	simProbes := probes[:min(len(probes), 100_000)]
	var sim simidx.Result
	spanned(tr, "csstree", "simidx.Run", func() {
		sim = simidx.Run(simidx.NewLevelCSS(keys, nodeSlots, cachesim.NewAddrAlloc()), cachesim.ModernServer(), simProbes)
	})
	miss := sim.MissesPerLookup(len(sim.Stats.Misses) - 1)
	res.put("csstree.sim_llc_miss_per_probe", "count", miss, len(simProbes))
	if miss > 0 {
		// Measured time per predicted miss: the reconciliation of the host
		// with the cache model (ROADMAP aim 1).
		res.put("csstree.ns_per_sim_miss", "ns", scalarNs/miss, len(scalar))
	}
	return t, batchNs
}

// isolateBinsearch times the node-search kernels on nodes of the built
// directory.  The nodes come from the directory's first levels, which stay
// cache-resident, so the number is the kernel's and not the memory's.
func isolateBinsearch(tr *tracer, res *result, t *csstree.Level, probes []uint32) {
	dir := t.Dir()
	nodes := min(len(dir)/nodeSlots, 1024)
	if nodes == 0 {
		return
	}
	visits := min(len(probes), 1_000_000)
	ns := spanned(tr, "binsearch", "NodeLowerBound", func() {
		for j := 0; j < visits; j++ {
			node := dir[(j%nodes)*nodeSlots:][:nodeSlots]
			sink += binsearch.NodeLowerBound(node, nodeSlots, probes[j])
		}
	})
	res.put("binsearch.node_ns_per_visit", "ns", ns/float64(visits), visits)

	var out [binsearch.GroupWidth]int32
	groups := visits / binsearch.GroupWidth
	ns = spanned(tr, "binsearch", "NodeLowerBound16", func() {
		for j := 0; j < groups; j++ {
			node := dir[(j%nodes)*nodeSlots:][:nodeSlots]
			binsearch.NodeLowerBound16(node, nodeSlots, probes[j*binsearch.GroupWidth:], out[:])
			sink += int(out[0])
		}
	})
	res.put("binsearch.node16_ns_per_visit", "ns", ns/float64(groups*binsearch.GroupWidth), groups*binsearch.GroupWidth)
}

// isolateSort times the radix sort on up to a million of the workload's
// keys in random order.
func isolateSort(tr *tracer, res *result, unsorted []uint32) {
	keys := slices.Clone(unsorted[:min(len(unsorted), 1_000_000)])
	ns := spanned(tr, "sortu32", "Sort", func() { sortu32.Sort(keys) })
	res.put("sortu32.sort_ns_per_key", "ns", ns/float64(len(keys)), len(keys))
}

// isolateDomain times dictionary encoding of one column.
func isolateDomain(tr *tracer, res *result, column []uint32) {
	ns := spanned(tr, "domain", "BuildInt", func() {
		dom, _ := domain.BuildInt(column)
		sink += dom.Len()
	})
	res.put("domain.build_ns_per_row", "ns", ns/float64(len(column)), len(column))
}
