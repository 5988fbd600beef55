package main

import (
	"math/rand"
	"slices"
	"time"

	"cssidx"
	"cssidx/internal/sortu32"
	"cssidx/internal/workload"
)

// serve_sharded uses the same trees differently from probe_uniform: small,
// skewed probe batches below the parallel fan-out threshold, the sort/dedupe
// schedule, and reads racing the epoch-swap rebuilds that absorb a steady
// trickle of inserts and deletes.  shard and sortu32 dominate; parallel is
// idle.

const (
	serveKeys      = 4_000_000
	serveShards    = 8
	serveInsert    = 256 // fresh keys inserted per iteration
	serveDelete    = 128 // earlier inserted keys deleted on odd iterations
	serveReads     = 32  // read batches per iteration
	serveReadBatch = 512
	serveSyncEvery = 64   // iterations between Sync calls
	serveReadPool  = 4096 // distinct read batches; the stream cycles through them
	serveZipfS     = 1.1
	serveOpsSec    = 20_000 // pinned stream length: ops per second of -seconds
	serveSegments  = 40     // two Sync cycles a segment
)

const (
	serveRead = iota
	serveWrite
	serveSync
)

var serveClasses = []classDef{{"read_batch", kindRead}, {"write_batch", kindWrite}, {"sync", kindMaint}}

type serveSharded struct{}

func (serveSharded) name() string { return "serve_sharded" }

type serveInst struct {
	base  []uint32
	idx   *cssidx.ShardedIndex[uint32]
	fresh []uint32   // iters × serveInsert distinct keys absent from base, in insertion order
	reads [][]uint32 // Zipf-distributed batches of base keys
	out   []int32
	iters int
	peak  int // largest DeltaKeys seen after a write
}

func (serveSharded) setup(cfg config) (instance, error) {
	g := workload.New(cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x7365727665))
	in := &serveInst{base: g.SortedUniform(cfg.n(serveKeys))}
	in.iters = max(cfg.ops(serveOpsSec)/(1+serveReads), 2*serveSyncEvery)
	in.fresh = freshKeys(rng, in.base, in.iters*serveInsert)

	// Zipf ranks are scattered over the key space by a multiplicative hash,
	// so the hot keys are not all the smallest keys of the first shard.
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(len(in.base)-1))
	pool := min(serveReadPool, in.iters*serveReads)
	in.reads = make([][]uint32, pool)
	for b := range in.reads {
		p := make([]uint32, serveReadBatch)
		for j := range p {
			p[j] = in.base[z.Uint64()*2654435761%uint64(len(in.base))]
		}
		in.reads[b] = p
	}
	in.out = make([]int32, serveReadBatch)
	in.idx = cssidx.NewSharded(in.base, cssidx.ShardedOptions[uint32]{Shards: serveShards})
	return in, nil
}

// freshKeys returns n distinct keys, none of them in the sorted slice base,
// in random order.
func freshKeys(rng *rand.Rand, base []uint32, n int) []uint32 {
	var out []uint32
	for len(out) < n {
		draw := make([]uint32, (n-len(out))+(n-len(out))/16+1024)
		for i := range draw {
			draw[i] = uint32(rng.Int63n(workload.MaxKey + 1))
		}
		draw = append(draw, out...)
		sortu32.Sort(draw)
		out = out[:0]
		b := 0
		for i, k := range draw {
			if i > 0 && k == draw[i-1] {
				continue
			}
			for b < len(base) && base[b] < k {
				b++
			}
			if b < len(base) && base[b] == k {
				continue
			}
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

func (in *serveInst) classes() []classDef    { return serveClasses }
func (in *serveInst) opCount() int           { return in.iters * (1 + serveReads) }
func (in *serveInst) segments() segmentation { return segmentation{n: serveSegments, steady: true} }
func (in *serveInst) callsPerClass() []int {
	return []int{in.iters * serveReads, in.iters, in.iters / serveSyncEvery}
}
func (in *serveInst) heapRows() int { return in.idx.Len() }
func (in *serveInst) close() error  { in.idx.Close(); return nil }

func (in *serveInst) streamHash() uint64 {
	h := newHasher()
	h.u32s(in.fresh)
	for _, p := range in.reads {
		h.u32s(p)
	}
	h.u64(uint64(in.iters))
	return h.sum
}

// inserted and deleted return the keys iteration it writes.
func (in *serveInst) inserted(it int) []uint32 {
	return in.fresh[it*serveInsert : (it+1)*serveInsert]
}

func (in *serveInst) deleted(it int) []uint32 {
	if it%2 == 0 {
		return nil
	}
	return in.inserted(it - 1)[:serveDelete]
}

func (in *serveInst) run(ph *phase, tr *tracer, limit int, res *result) {
	op := 0
	for it := 0; it < in.iters && op < limit; it++ {
		root := tr.begin(0, "op", "write_batch", op)
		start := time.Now()
		call := tr.begin(root, "shard", "Insert", op)
		in.idx.Insert(in.inserted(it)...)
		tr.end(call)
		if del := in.deleted(it); del != nil {
			call = tr.begin(root, "shard", "Delete", op)
			in.idx.Delete(del...)
			tr.end(call)
		}
		ns := time.Since(start).Nanoseconds()
		tr.end(root)
		ph.add(serveWrite, ns)
		op++
		in.peak = max(in.peak, in.idx.DeltaStats().DeltaKeys)

		for r := 0; r < serveReads && op < limit; r++ {
			probes := in.reads[(it*serveReads+r)%len(in.reads)]
			root := tr.begin(0, "op", "read_batch", op)
			start := time.Now()
			call := tr.begin(root, "shard", "SearchBatch", op)
			in.idx.SearchBatch(probes, in.out)
			tr.end(call)
			ns := time.Since(start).Nanoseconds()
			tr.end(root)
			ph.add(serveRead, ns)
			// Base keys are never deleted, so every probe must be found;
			// positions shift with every absorbed insert and are checked
			// at the end of the stream instead.
			if slices.Min(in.out) < 0 {
				res.fail("read batch at op %d: a resident key was not found", op)
			}
			op++
		}
		if (it+1)%serveSyncEvery == 0 && op < limit {
			id := tr.begin(0, "shard", "Sync", op)
			start := time.Now()
			in.idx.Sync()
			ns := time.Since(start).Nanoseconds()
			tr.end(id)
			ph.add(serveSync, ns)
		}
	}
}

// verify checks the index after the whole stream: its size, and membership
// of a sample of the keys inserted and deleted.
func (in *serveInst) verify(res *result) {
	in.idx.Sync()
	ins, del := in.iters*serveInsert, in.iters/2*serveDelete
	if got, want := in.idx.Len(), len(in.base)+ins-del; got != want {
		res.fail("Len() = %d after the stream, want %d", got, want)
	}
	for it := 0; it < in.iters; it++ {
		keys := in.inserted(it)
		gone := 0
		if it+1 < in.iters && (it+1)%2 == 1 {
			gone = serveDelete // the next iteration deleted the first half
		}
		for j := 0; j < len(keys); j += 16 {
			found := in.idx.Search(keys[j]) >= 0
			if found == (j < gone) {
				res.fail("key %d inserted in iteration %d: found=%v, deleted=%v", keys[j], it, found, j < gone)
			}
		}
	}
}

func (in *serveInst) report(ph *phase, res *result) {
	var swaps uint64
	for _, e := range in.idx.Epochs() {
		swaps += e
	}
	ds := in.idx.DeltaStats()
	res.put("shard.epoch_swaps", "count", float64(swaps), in.iters)
	res.put("shard.absorbs", "count", float64(ds.Appends), in.iters)
	res.put("shard.run_merges", "count", float64(ds.RunMerges), in.iters)
	res.put("shard.folds", "count", float64(ds.Folds), in.iters)
	res.put("shard.delta_keys_peak", "count", float64(in.peak), in.iters)
	if ns, n, ok := ph.pct(ofClass("sync"), 50); ok {
		res.put("shard.sync_wait_ms_p50", "ms", ns/1e6, n)
	}
	if ns, n, ok := ph.pct(ofClass("sync"), 90); ok {
		res.put("shard.sync_wait_ms_p90", "ms", ns/1e6, n)
	}
	if m, perNs, ok := in.idx.BatchCalibration(); ok {
		res.note("min_batch_per_worker", m)
		res.note("per_probe_ns", perNs)
	}
}

func (in *serveInst) release() { in.base, in.fresh, in.reads, in.out = nil, nil, nil, nil }

func (in *serveInst) counters() ([]string, func(*[maxCounts]int64)) {
	names := []string{"epochs", "delta_keys", "runs", "absorbs", "run_merges", "folds", "alloc_bytes"}
	return names, func(c *[maxCounts]int64) {
		var e uint64
		for _, v := range in.idx.Epochs() {
			e += v
		}
		ds := in.idx.DeltaStats()
		c[0], c[1], c[2] = int64(e), int64(ds.DeltaKeys), int64(ds.Runs)
		c[3], c[4], c[5] = int64(ds.Appends), int64(ds.RunMerges), int64(ds.Folds)
		c[6] = allocatedBytes()
	}
}

// isolate prices the shard layer's routing: a write-free sharded index over
// the base keys answers the read pool, and the tree kernels' time for the
// same probes in the same batch size is taken off.
func (in *serveInst) isolate(cfg config, tr *tracer, res *result) error {
	flat := slices.Concat(in.reads...)
	_, treeNs := isolateCSSTree(tr, res, in.base, flat, serveReadBatch)
	isolateSort(tr, res, in.fresh)

	quiet := cssidx.NewSharded(in.base, cssidx.ShardedOptions[uint32]{Shards: serveShards})
	defer quiet.Close()
	out := make([]int32, serveReadBatch)
	quiet.SearchBatch(in.reads[0], out)
	ns := spanned(tr, "shard", "SearchBatch(write-free)", func() {
		for _, p := range in.reads {
			quiet.SearchBatch(p, out)
		}
	}) / float64(len(flat))
	res.put("shard.route_ns_per_probe", "ns", ns-treeNs, len(flat))
	return nil
}
