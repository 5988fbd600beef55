package shard

// Batched probing across shards.  A probe batch is partitioned by the shard
// boundaries, each shard's group descends its CSS-tree with the lockstep
// batch kernel, and results scatter back to input order with the shard's
// global offset applied.  The whole batch runs against
// ONE frozen View — a single snapshot epoch per shard — so a batch never
// mixes answers from different epochs even while rebuilds are publishing.
//
// Two execution dimensions sit on top of the partitioning:
//
// Probe order.  Each batch descends in input order or in key order, and the
// engine picks per batch from a sampled duplicate count (ChooseKeyOrder):
// skew is a property of the probe stream, not of the index, so the batch
// itself is the right thing to inspect.  The key-ordered plan sorts the
// batch by probe key before the descent (results still scatter back to
// input order) and deduplicates it: repeated probes descend once and fan
// their result out.  Because shards are key ranges, sorting also groups
// probes by shard for free, and inside a shard consecutive probes then walk
// neighbouring root-to-leaf paths: a skewed batch touches each directory
// node once instead of bouncing randomly across the directory.  The plan is
// one call, sortu32.Unique.Sort, which returns the distinct probes with the
// perm and expand maps the scatter needs (batches of 32K probes or more
// sort across the worker pool).
//
// Parallelism.  The per-shard probe runs are independent — disjoint probe
// spans, disjoint result spans, immutable snapshots — so they execute across
// the worker pool of internal/parallel, with large runs split into sub-spans
// so a single hot shard cannot serialise the batch.  All batch buffers come
// from a per-index sync.Pool (batchScratch), and the Index's own batch
// methods draw their View from another; a batch granted one worker runs on
// the calling goroutine and allocates nothing, while a fanned-out batch also
// allocates its worker closures and goroutines.

import (
	"sort"
	"sync"
	"time"

	"cssidx/internal/parallel"
	"cssidx/internal/sortu32"
)

// Sampling parameters: sampleSize probes are inspected per batch (strided
// across it); the key-ordered plan is chosen when the sample holds at least
// dupThreshold duplicated values.  Batches below adaptiveMinBatch always run
// input-order — the sort cannot amortise.
const (
	adaptiveMinBatch = 128
	sampleSize       = 64
	dupThreshold     = 4 // ≥4/64 ≈ 6% sampled duplicates → sort pays
)

// ChooseKeyOrder reports whether a batch of these probes descends in key
// order (sorted and deduplicated) rather than input order: exactly the
// decision the batch methods make, exported so callers that report timings
// can tag each batch with the order that ran.
func ChooseKeyOrder(probes []uint32) bool {
	n := len(probes)
	if n < adaptiveMinBatch {
		return false
	}
	// Strided sample, insertion-sorted in a fixed buffer: no allocation,
	// ~sampleSize² ⁄ 4 comparisons — trivial next to n tree descents.
	var buf [sampleSize]uint32
	stride := n / sampleSize
	for i := 0; i < sampleSize; i++ {
		v := probes[i*stride]
		j := i
		for j > 0 && buf[j-1] > v {
			buf[j] = buf[j-1]
			j--
		}
		buf[j] = v
	}
	dups := 0
	for i := 1; i < sampleSize; i++ {
		if buf[i] == buf[i-1] {
			dups++
		}
	}
	return dups >= dupThreshold
}

// batchRun is a maximal run of grouped probes landing in one shard:
// gathered[lo:hi] all route to shard sid.
type batchRun struct {
	sid    int
	lo, hi int
}

// batchScratch holds every buffer one batch execution needs; instances are
// pooled per Index so steady-state batches reuse them.
type batchScratch struct {
	perm     []uint32
	gathered []uint32
	res      []int32
	resL     []int32
	sids     []int32
	counts   []int32
	next     []int32
	u        sortu32.Unique // the key-ordered plan
	runs     []batchRun
	tasks    []batchRun
}

// grow sizes the scratch for a batch of n probes over nshards shards.
func (s *batchScratch) grow(n, nshards int) {
	if cap(s.perm) < n {
		s.perm = make([]uint32, n)
		s.gathered = make([]uint32, n)
		s.res = make([]int32, n)
		s.resL = make([]int32, n)
		s.sids = make([]int32, n)
	}
	if cap(s.counts) < nshards+1 {
		s.counts = make([]int32, nshards+1)
		s.next = make([]int32, nshards+1)
	}
	s.counts = s.counts[:nshards+1]
	s.next = s.next[:nshards+1]
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.runs = s.runs[:0]
	s.tasks = s.tasks[:0]
}

// scratchFrom draws a scratch from pool (allocating the first time) and
// sizes it for n keys over nshards shards; the caller puts it back.
func scratchFrom(pool *sync.Pool, n, nshards int) *batchScratch {
	s, _ := pool.Get().(*batchScratch)
	if s == nil {
		s = &batchScratch{}
	}
	s.grow(n, nshards)
	return s
}

// groupByShard counting-sorts keys by the shard each routes to under
// bounds: gathered[counts[sh]:counts[sh+1]] are shard sh's keys in input
// order, and gathered[j] is keys[perm[j]].  Both slices alias s.
func (s *batchScratch) groupByShard(keys, bounds []uint32) (perm, gathered []uint32) {
	n := len(keys)
	perm, sids, counts := s.perm[:n], s.sids[:n], s.counts
	for i, k := range keys {
		sh := int32(route(bounds, k))
		sids[i] = sh
		counts[sh+1]++
	}
	for sh := 1; sh < len(counts); sh++ {
		counts[sh] += counts[sh-1]
	}
	next := s.next
	copy(next, counts)
	for i, sh := range sids {
		perm[next[sh]] = uint32(i)
		next[sh]++
	}
	gathered = s.gathered[:n]
	for j, i := range perm {
		gathered[j] = keys[i]
	}
	return perm, gathered
}

// batchPlan partitions a probe batch by shard: the descent probes
// gathered[r.lo:r.hi] per run r, and position j of gathered answers the
// original probe perm[j] (expand == nil), or — in the key-ordered plan,
// where gathered is sorted and deduplicated — original probe perm[j] takes
// gathered's answer at expand[j].  All returned slices alias s.
func (v *View) batchPlan(probes []uint32, keyOrdered bool, s *batchScratch) (perm, gathered []uint32, runs []batchRun, expand []int32) {
	n := len(probes)
	switch {
	case keyOrdered:
		// The tuner is stripped as in scatter: a sort item costs nothing like
		// a probe, so the partition must not inherit the probe-derived span
		// (nor calibrate the tuner).
		gathered, perm, expand = s.u.Sort(probes, v.par.WithoutTuner())
		// gathered is sorted, so shard runs end at each boundary's lower bound.
		uq := len(gathered)
		for lo := 0; lo < uq; {
			sid := v.shardFor(gathered[lo])
			hi := uq
			if sid < len(v.bounds) {
				b := v.bounds[sid]
				hi = lo + sort.Search(uq-lo, func(j int) bool { return gathered[lo+j] >= b })
			}
			s.runs = append(s.runs, batchRun{sid: sid, lo: lo, hi: hi})
			lo = hi
		}
	case len(v.snaps) > 1:
		// Counting sort by shard keeps the within-shard probe order stable;
		// the prefix sums are the run boundaries.
		perm, gathered = s.groupByShard(probes, v.bounds)
		for sh := 0; sh < len(v.snaps); sh++ {
			if s.counts[sh] < s.counts[sh+1] {
				s.runs = append(s.runs, batchRun{sid: sh, lo: int(s.counts[sh]), hi: int(s.counts[sh+1])})
			}
		}
	default:
		// One shard: the batch is one run in input order.
		perm = s.perm[:n]
		for i := range perm {
			perm[i] = uint32(i)
		}
		gathered = probes
		if n > 0 {
			s.runs = append(s.runs, batchRun{sid: 0, lo: 0, hi: n})
		}
	}
	return perm, gathered, s.runs, expand
}

// addRunLowerBounds turns the tree lower bounds in res into live ranks:
// plus the insert-run keys below each probe, minus the tombstones below it.
// A no-op without a delta; with one, each probe costs one cache line of
// directory and a scan of the (usually empty) bucket it bounds.
func addRunLowerBounds(sn *snapshot, probes []uint32, res []int32) {
	if sn.deltaKeys() == 0 {
		return
	}
	for j, p := range probes {
		il, _, tl, _ := sn.rank(p, res[j])
		res[j] += il - tl
	}
}

// observeTuner notes one batch against the view's tuner so a calibration
// that predates significant index growth is re-measured (parallel.Observe).
func (v *View) observeTuner() {
	if t := v.par.Tuner; t != nil {
		t.Observe(v.Len())
	}
}

// batchOp names the answer a batch computes.
type batchOp uint8

const (
	opLowerBound batchOp = iota
	opSearch
	opEqualRange
)

// descend answers run r of gathered into res (and resL for opEqualRange):
// the shard tree's descent, then the op's resolution against the shard's
// delta, shifted to global positions by the shard's offset.
func (v *View) descend(op batchOp, r batchRun, gathered []uint32, res, resL []int32) {
	snap, g, out := v.snaps[r.sid], gathered[r.lo:r.hi], res[r.lo:r.hi]
	off := int32(v.offs[r.sid])
	snap.tree.LowerBoundBatch(g, out)
	switch op {
	case opLowerBound:
		addRunLowerBounds(snap, g, out)
		for j := range out {
			out[j] += off
		}
	case opSearch:
		searchResolve(snap, g, out, off)
	default:
		equalRangeResolve(snap, g, out, resL[r.lo:r.hi], off)
	}
}

// batch answers probes into out (and last, for opEqualRange) in the probe
// order ChooseKeyOrder picks; results are identical in either order and
// under every worker count.
func (v *View) batch(op batchOp, probes []uint32, out, last []int32) {
	v.observeTuner()
	keyOrdered := ChooseKeyOrder(probes)
	if len(v.snaps) == 1 && !keyOrdered {
		// Single shard, input order: descend straight into out (offset 0),
		// splitting the batch across workers.
		noteBatchSingle(len(probes))
		parallel.Run(len(probes), v.par, func(lo, hi int) {
			v.descend(op, batchRun{lo: lo, hi: hi}, probes, out, last)
		})
		return
	}
	s := scratchFrom(v.pool, len(probes), len(v.snaps))
	defer v.pool.Put(s)
	perm, gathered, runs, expand := v.batchPlan(probes, keyOrdered, s)
	noteBatchRuns(runs)
	res, resL := s.res[:len(gathered)], s.resL[:len(gathered)]
	v.forRuns(op, runs, len(gathered), gathered, res, resL, s)
	v.scatter(perm, expand, out, res, last, resL) // last is nil but for opEqualRange
}

// forRuns descends every run, splitting runs larger than span into
// sub-runs so one hot shard cannot serialise the batch, and distributing the
// resulting tasks across the worker pool.  Tasks touch disjoint
// gathered/result spans, so they run concurrently without synchronisation.
//
// When the index's span tuner has not calibrated yet (a multi-shard index
// never hits the flat single-shard path that parallel.Run calibrates), the
// first large enough run executes on the calling goroutine, timed, and
// seeds the tuner — real work, not a rehearsal; the rest of the batch fans
// out under the derived MinBatchPerWorker.
func (v *View) forRuns(op batchOp, runs []batchRun, total int, gathered []uint32, res, resL []int32, s *batchScratch) {
	opts := v.par
	if o, calibrate := opts.Resolved(); !calibrate {
		opts = o
	} else if len(runs) > 0 && runs[0].hi-runs[0].lo >= calibMinRun {
		// Time a BOUNDED prefix of the first run, not the whole run: a
		// skewed batch can put most of a 1M-probe batch in one shard, and
		// the calibration must not serialise it.
		r := runs[0]
		end := min(r.lo+calibMaxRun, r.hi)
		start := time.Now()
		v.descend(op, batchRun{sid: r.sid, lo: r.lo, hi: end}, gathered, res, resL)
		opts.Tuner.Note(end-r.lo, time.Since(start))
		opts, _ = opts.Resolved()
		if end == r.hi {
			runs = runs[1:]
		} else {
			runs[0].lo = end
		}
		total -= end - r.lo
	}
	w := opts.WorkersFor(total)
	if w == 1 {
		for _, r := range runs {
			v.descend(op, r, gathered, res, resL)
		}
		return
	}
	// Sub-span size: enough tasks for balance (~2 per worker) but never so
	// small that the lockstep kernel loses its group.
	span := max((total+2*w-1)/(2*w), 256)
	tasks := s.tasks[:0]
	for _, r := range runs {
		for lo := r.lo; lo < r.hi; lo += span {
			tasks = append(tasks, batchRun{sid: r.sid, lo: lo, hi: min(lo+span, r.hi)})
		}
	}
	s.tasks = tasks
	parallel.Do(len(tasks), total, opts, func(t int) { v.descend(op, tasks[t], gathered, res, resL) })
}

// calibMinRun is the smallest per-shard run worth timing for calibration
// (below it the timer reads mostly fixed batch overhead, not probe cost);
// calibMaxRun bounds the timed prefix so calibration never serialises a
// large run (it matches parallel.Run's calibration span).
const (
	calibMinRun = 1024
	calibMaxRun = 4096
)

// scatter writes the per-gathered-position results back to input order:
// probe perm[j] takes res[expand[j]] — res[j] when expand is nil — and
// outL takes resL likewise when given.  Every write lands at a distinct
// perm[j], so large batches split spans of j across workers; a one-worker
// batch runs here, with no closure to allocate.  The tuner is stripped: a
// scatter item costs nothing like a probe, so it must neither calibrate
// the tuner nor inherit the probe-derived span.
func (v *View) scatter(perm []uint32, expand []int32, out, res, outL, resL []int32) {
	opts := v.par.WithoutTuner()
	if opts.WorkersFor(len(perm)) == 1 {
		scatterSpan(0, len(perm), perm, expand, out, res, outL, resL)
		return
	}
	parallel.Run(len(perm), opts, func(lo, hi int) {
		scatterSpan(lo, hi, perm, expand, out, res, outL, resL)
	})
}

// scatterSpan is scatter's loop over positions [lo, hi) of perm.
func scatterSpan(lo, hi int, perm []uint32, expand []int32, out, res, outL, resL []int32) {
	for j := lo; j < hi; j++ {
		e := int32(j)
		if expand != nil {
			e = expand[j]
		}
		out[perm[j]] = res[e]
		if outL != nil {
			outL[perm[j]] = resL[e]
		}
	}
}

// LowerBoundBatch stores the global LowerBound of every probe into out
// (len(out) must equal len(probes)), bit-identical to the scalar
// LowerBound against this view; see SearchBatch for the execution model.
func (v *View) LowerBoundBatch(probes []uint32, out []int32) {
	if len(out) != len(probes) {
		panic("shard: probes/out length mismatch")
	}
	v.batch(opLowerBound, probes, out, nil)
}

// SearchBatch stores the global Search of every probe into out (len(out)
// must equal len(probes)): the position of the leftmost occurrence, or -1
// if absent.  The probes are partitioned by shard boundaries, each shard's
// group descends its tree in lockstep, and large batches fan the per-shard
// runs across the worker pool.  Results are bit-identical to the scalar
// calls against this view, in either probe order and under every worker
// count.
func (v *View) SearchBatch(probes []uint32, out []int32) {
	if len(out) != len(probes) {
		panic("shard: probes/out length mismatch")
	}
	v.batch(opSearch, probes, out, nil)
}

// searchResolve turns the tree lower bounds in res into global Search
// results: live leftmost rank plus the shard offset when the key is live —
// inserted, or a base occurrence its tombstones do not cover — -1 otherwise.
func searchResolve(sn *snapshot, probes []uint32, res []int32, off int32) {
	n := int32(len(sn.keys))
	if sn.deltaKeys() == 0 {
		for j, p := range probes {
			if lb := res[j]; lb < n && sn.keys[lb] == p {
				res[j] = off + lb
			} else {
				res[j] = -1
			}
		}
		return
	}
	for j, p := range probes {
		lb := res[j]
		if adj, ok := sn.emptyBucket(lb); ok {
			if lb < n && sn.keys[lb] == p {
				res[j] = off + lb + adj
			} else {
				res[j] = -1
			}
			continue
		}
		il, insEq, tl, tombEq := sn.rank(p, lb)
		if sn.present(p, lb, insEq, tombEq) {
			res[j] = off + lb + il - tl
		} else {
			res[j] = -1
		}
	}
}

// EqualRangeBatch stores the global EqualRange of every probe into
// (first[i], last[i]); all three slices must have equal length.  Duplicates
// of a key never straddle shards, so each range is exact.
func (v *View) EqualRangeBatch(probes []uint32, first, last []int32) {
	if len(first) != len(probes) || len(last) != len(probes) {
		panic("shard: probes/first/last length mismatch")
	}
	v.batch(opEqualRange, probes, first, last)
}

// equalRangeResolve extends the tree lower bounds in resF across each
// probe's duplicate run and applies the delta (inserted occurrences added,
// tombstoned ones removed), producing global live [first, last) ranges.
func equalRangeResolve(sn *snapshot, probes []uint32, resF, resL []int32, off int32) {
	delta := sn.deltaKeys() > 0
	for j, p := range probes {
		lb := resF[j]
		first, n := lb, sn.baseEqual(p, lb)
		if delta {
			il, insEq, tl, tombEq := sn.rank(p, lb)
			first += il - tl
			n += insEq - tombEq
		}
		resF[j] = off + first
		resL[j] = off + first + n
	}
}

// SetParallel configures the worker pool for batch execution (zero value:
// GOMAXPROCS workers with adaptive per-worker spans — see parOpts; Workers
// 1 keeps batches on the calling goroutine).  Set before serving; it is not
// synchronised with concurrent readers.  It is for tests and in-module
// harnesses: the public surface sets no worker options on a sharded index.
func (x *Index) SetParallel(o parallel.Options) { x.par = o }

// parOpts returns the worker-pool options a View serves batches under: the
// configured options with the index's span tuner attached, so the first
// large single-shard batch calibrates MinBatchPerWorker from this index's
// measured per-probe cost and every later batch (and View) reuses it.  An
// explicit MinBatchPerWorker or Tuner from SetParallel wins.
func (x *Index) parOpts() parallel.Options {
	o := x.par
	if o.Tuner == nil {
		o.Tuner = &x.tuner
	}
	return o
}

// BatchCalibration reports the adaptive span the index measured: the
// derived minimum probes per worker and the per-probe cost behind it; ok is
// false before any batch was large enough to calibrate.
func (x *Index) BatchCalibration() (minPerWorker int, perProbeNs float64, ok bool) {
	return x.tuner.Calibration()
}

// LowerBoundBatch answers the whole batch against one captured View, so
// every result reflects a single epoch per shard even while rebuilds publish
// concurrently; see View.SearchBatch.  The View comes from the index's pool,
// so a steady-state batch allocates nothing more than one through a View.
func (x *Index) LowerBoundBatch(probes []uint32, out []int32) {
	v := x.batchView()
	v.LowerBoundBatch(probes, out)
	x.releaseView(v)
}

// SearchBatch answers the whole batch against one captured View; see
// LowerBoundBatch.
func (x *Index) SearchBatch(probes []uint32, out []int32) {
	v := x.batchView()
	v.SearchBatch(probes, out)
	x.releaseView(v)
}

// EqualRangeBatch answers the whole batch against one captured View; see
// LowerBoundBatch.
func (x *Index) EqualRangeBatch(probes []uint32, first, last []int32) {
	v := x.batchView()
	v.EqualRangeBatch(probes, first, last)
	x.releaseView(v)
}
