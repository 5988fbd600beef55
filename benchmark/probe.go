package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"

	"cssidx"
	"cssidx/internal/parallel"
	"cssidx/internal/workload"
)

// probe_uniform is the paper's own experiment: a sorted array of distinct
// keys far larger than the private caches, a level CSS-tree over it, and
// batches of uniformly random probes.  Only csstree and binsearch (and the
// parallel engine's sequential path) do any work.

const (
	probeKeys       = 16_000_000
	probeBatch      = 16_384
	probePoolBatch  = 128 // distinct probe batches; the stream cycles through them
	probeMissShare  = 10  // one probe in ten is absent
	probeBatchesSec = 500 // pinned stream length: batches per second of -seconds
	probeSegments   = 100 // every batch is the same work; about 50 batches, a tenth of a second, each
)

type probeUniform struct{}

func (probeUniform) name() string { return "probe_uniform" }

type probeInst struct {
	keys   []uint32
	idx    cssidx.BatchOrderedIndex
	probes [][]uint32 // the pool
	want   [][]int32  // expected position of every pooled probe, -1 if absent
	out    []int32
	nOps   int
}

func (probeUniform) setup(cfg config) (instance, error) {
	g := workload.New(cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x70726f6265))
	in := &probeInst{keys: g.SortedUniform(cfg.n(probeKeys)), nOps: cfg.ops(probeBatchesSec)}
	batch := min(probeBatch, max(len(in.keys)/8, 64))
	pool := min(probePoolBatch, in.nOps)
	in.out = make([]int32, batch)
	misses := g.Misses(in.keys, pool*batch/probeMissShare+batch)
	for b := 0; b < pool; b++ {
		p, w := make([]uint32, batch), make([]int32, batch)
		for j := range p {
			if rng.Intn(probeMissShare) == 0 && len(misses) > 0 {
				p[j], w[j] = misses[0], -1
				misses = misses[1:]
				continue
			}
			// Keys are strictly ascending, so a key's position is its
			// leftmost occurrence.
			pos := rng.Intn(len(in.keys))
			p[j], w[j] = in.keys[pos], int32(pos)
		}
		in.probes, in.want = append(in.probes, p), append(in.want, w)
	}
	// One worker on the measured path.  On the reference box the two vCPUs
	// sometimes share a core: the two-worker rate then flips between ≈920
	// and ≈480 batches/s within seconds (the second being the one-worker
	// rate), and no run of ten seconds can be compared with another.  The
	// pool's sequential path stays measured; its fan-out is measured in
	// isolation (parallel.speedup), where its spread gates nothing.
	in.idx = cssidx.NewParallel(cssidx.NewLevelCSS(in.keys, cssidx.DefaultNodeBytes), cssidx.ParallelOptions{Workers: 1})
	return in, nil
}

func (in *probeInst) classes() []classDef    { return []classDef{{"probe_batch", kindRead}} }
func (in *probeInst) opCount() int           { return in.nOps }
func (in *probeInst) segments() segmentation { return segmentation{n: probeSegments, steady: true} }
func (in *probeInst) callsPerClass() []int   { return []int{in.nOps} }
func (in *probeInst) heapRows() int          { return len(in.keys) }
func (in *probeInst) close() error           { return nil }
func (in *probeInst) verify(*result)         {}

func (in *probeInst) streamHash() uint64 {
	h := newHasher()
	for _, p := range in.probes {
		h.u32s(p)
	}
	h.u64(uint64(in.nOps))
	return h.sum
}

func (in *probeInst) run(ph *phase, tr *tracer, limit int, res *result) {
	for i := 0; i < limit; i++ {
		b := i % len(in.probes)
		root := tr.begin(0, "op", "probe_batch", i)
		start := time.Now()
		call := tr.begin(root, "parallel", "SearchBatch", i)
		in.idx.SearchBatch(in.probes[b], in.out)
		tr.end(call)
		ns := time.Since(start).Nanoseconds()
		tr.end(root)
		ph.add(0, ns)
		if !slices.Equal(in.out, in.want[b]) {
			res.fail("probe batch %d: positions disagree with the oracle", i)
		}
	}
}

func (in *probeInst) report(ph *phase, res *result) {}

// release keeps the key array (the index serves from it) and drops the
// probe pool.
func (in *probeInst) release() { in.probes, in.want, in.out = nil, nil, nil }

func (in *probeInst) counters() ([]string, func(*[maxCounts]int64)) {
	return []string{"alloc_bytes"}, func(c *[maxCounts]int64) { c[0] = allocatedBytes() }
}

func (in *probeInst) isolate(cfg config, tr *tracer, res *result) error {
	flat := slices.Concat(in.probes...)
	batch := len(in.probes[0])
	tree, singleNs := isolateCSSTree(tr, res, in.keys, flat, batch)
	isolateBinsearch(tr, res, tree, flat)
	isolateSort(tr, res, flat)
	in.isolateParallel(tr, res, flat, batch, singleNs)
	in.isolateBaselines(tr, res, flat)
	return nil
}

// isolateParallel measures what the measured path leaves out: the worker
// pool at its default width (GOMAXPROCS workers, adaptive spans) against one
// goroutine on the same batches, and a fan-out that does nothing.
func (in *probeInst) isolateParallel(tr *tracer, res *result, flat []uint32, batch int, singleNs float64) {
	fan := cssidx.NewParallel(cssidx.NewLevelCSS(in.keys, cssidx.DefaultNodeBytes), cssidx.ParallelOptions{})
	n := len(flat) / batch * batch
	out := make([]int32, batch)
	fan.SearchBatch(flat[:batch], out) // the calibration batch
	parNs := spanned(tr, "parallel", "SearchBatch", func() {
		for lo := 0; lo < n; lo += batch {
			fan.SearchBatch(flat[lo:lo+batch], out)
		}
	}) / float64(n)
	// Uncalibrated means no batch was large enough to fan out (one CPU, or
	// a scaled-down run): the engine then uses its static default, one
	// worker runs, and the speed-up is the pool's overhead alone.
	minPer, perNs, _ := fan.(cssidx.BatchTuning).BatchCalibration()
	opts := parallel.Options{MinBatchPerWorker: minPer}
	res.put("parallel.min_batch_per_worker", "count", float64(minPer), 1)
	res.put("parallel.speedup", "ratio", singleNs/parNs, n)
	res.note("min_batch_per_worker", minPer)
	res.note("per_probe_ns", perNs)
	res.note("parallel.workers_at_batch", opts.WorkersFor(batch))

	// Four batches at a time: the size at which a second measurement of the
	// speed-up is taken, recorded beside the calibration.
	if big := 4 * batch; len(flat) >= 2*big {
		single := cssidx.AsBatchOrdered(cssidx.NewLevelCSS(in.keys, cssidx.DefaultNodeBytes))
		bigOut := make([]int32, big)
		m := len(flat) / big * big
		time1 := func(ix cssidx.BatchOrderedIndex) float64 {
			start := time.Now()
			for lo := 0; lo < m; lo += big {
				ix.SearchBatch(flat[lo:lo+big], bigOut)
			}
			return float64(time.Since(start).Nanoseconds())
		}
		res.note("parallel.speedup_4x_batch", time1(single)/time1(fan))
	}

	const rounds = 2000
	ns := spanned(tr, "parallel", "Run(empty)", func() {
		for r := 0; r < rounds; r++ {
			parallel.Run(batch, opts, func(lo, hi int) {})
		}
	})
	res.put("parallel.dispatch_us", "us", ns/rounds/1e3, rounds)
}

// isolateBaselines probes the paper's competitor structures with the same
// scalar lookups, one structure built and dropped at a time: the curve every
// CSS-tree claim is stated against.
func (in *probeInst) isolateBaselines(tr *tracer, res *result, flat []uint32) {
	probes := flat[:min(len(flat), 1_000_000)]
	var binNs float64
	for _, b := range []struct {
		tag  string
		kind cssidx.Kind
	}{
		{"binsearch", cssidx.KindBinarySearch},
		{"bptree", cssidx.KindBPlusTree},
		{"ttree", cssidx.KindTTree},
		{"hash", cssidx.KindHash},
		{"interp", cssidx.KindInterpolation},
	} {
		idx := cssidx.New(b.kind, in.keys, cssidx.Options{})
		ns := spanned(tr, "baseline", b.tag, func() {
			for _, k := range probes {
				sink += idx.Search(k)
			}
		}) / float64(len(probes))
		res.put("baseline."+b.tag+"_ns_per_probe", "ns", ns, len(probes))
		res.put("baseline."+b.tag+"_bytes_per_key", "B", float64(idx.SpaceBytes())/float64(len(in.keys)), len(in.keys))
		if b.kind == cssidx.KindBinarySearch {
			binNs = ns
		}
		idx = nil
		runtime.GC()
	}
	if css, ok := res.get("csstree.scalar_ns_per_probe"); ok && css.Value > 0 {
		res.put("baseline.css_speedup_vs_binsearch", "ratio", binNs/css.Value, len(probes))
	}
}
