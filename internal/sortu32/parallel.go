package sortu32

// Parallel pair sort: the key-ordered batch schedule's sort used to run
// entirely on the calling goroutine before the descent fanned out — the
// serial fraction the Amdahl math punishes hardest on skewed 1M+ batches,
// where the sort IS the schedule's cost.  SortPairsParallel removes it with
// a parallel MSB-radix partition:
//
//  1. histogram — each worker counts its contiguous span of keys into 256
//     buckets by the partition byte;
//  2. scatter — an exclusive prefix sum over (bucket, worker) gives every
//     worker a private write cursor per bucket, so all workers scatter
//     their spans concurrently with no synchronisation and no overlap, and
//     bucket regions stay in worker order (the partition is stable);
//  3. bucket sorts — the 256 bucket regions are independent, so workers
//     drain them through an atomic task counter (skew-proof: a worker that
//     finished a small bucket immediately draws the next), each bucket
//     sorted by the package's LSD core, which skips the bytes the bucket's
//     keys share.
//
// The partition byte is the highest byte in which the batch varies at all
// (found by an OR-fold pre-pass, also parallel), so narrow-range batches —
// IN-lists over a dense domain, Zipf streams over a small hot set — still
// spread across all 256 buckets instead of collapsing into one.
//
// The result is bit-identical to SortPairsScratch: same stable order, same
// in-place contract.

import (
	"math/bits"
	"runtime"

	"cssidx/internal/parallel"
)

// parallelSortMin is the batch size below which the sequential sort wins
// (the partition needs two extra passes over the data to buy its
// parallelism).
const parallelSortMin = 1 << 15

// maxPartitionWorkers caps the partition fan-out: beyond this the
// per-worker histogram footprint (256 counters each) costs more cache than
// the extra workers return.
const maxPartitionWorkers = 32

// HistLen returns the scratch length SortPairsParallel needs in hist to run
// a batch of n keys allocation-free under opts.
func HistLen(n int, opts parallel.Options) int {
	w := opts.WorkersFor(n)
	if w > maxPartitionWorkers {
		w = maxPartitionWorkers
	}
	return w * 256
}

// SortPairsParallel sorts keys ascending in place, applying the identical
// stable permutation to vals, using the worker pool that opts grants: a
// parallel MSB-radix partition into 256 buckets followed by independent
// per-bucket sorts.  tmpK/tmpV are the ping-pong scratch (allocated when
// their capacity is below len(keys)); hist is the per-worker histogram
// scratch (see HistLen; allocated when short).  Small batches and
// single-worker grants fall back to the sequential SortPairsScratch; the
// resulting order is identical either way.
func SortPairsParallel(keys, vals, tmpK, tmpV []uint32, hist []int32, opts parallel.Options) {
	if len(keys) != len(vals) {
		panic("sortu32: keys and vals length mismatch")
	}
	n := len(keys)
	w := opts.WorkersFor(n)
	if w > maxPartitionWorkers {
		w = maxPartitionWorkers
	}
	// The partition pays two extra passes over the data to buy parallelism;
	// without real CPUs behind the workers (an explicit Workers above
	// GOMAXPROCS merely time-shares) the sequential sort is faster.
	if g := runtime.GOMAXPROCS(0); w > g {
		w = g
	}
	if w == 1 || n < parallelSortMin {
		SortPairsScratch(keys, vals, tmpK, tmpV)
		return
	}
	if cap(tmpK) < n || cap(tmpV) < n {
		tmpK = make([]uint32, n)
		tmpV = make([]uint32, n)
	}
	tmpK, tmpV = tmpK[:n], tmpV[:n]
	if cap(hist) < w*256 {
		hist = make([]int32, w*256)
	}
	hist = hist[:w*256]

	// Pick the partition byte: the highest byte where any key differs.
	var diffs [maxPartitionWorkers]uint32
	first := keys[0]
	parallel.Do(w, n, opts, func(t int) {
		lo, hi := parallel.Span(n, w, t)
		acc := uint32(0)
		for _, k := range keys[lo:hi] {
			acc |= k ^ first
		}
		diffs[t] = acc
	})
	acc := uint32(0)
	for t := 0; t < w; t++ {
		acc |= diffs[t]
	}
	if acc == 0 {
		return // every key equal: already sorted, permutation is identity
	}
	// Partition on the 8 highest VARYING bits, not the highest whole byte:
	// a narrow or duplicate-heavy range then still spreads over up to 256
	// buckets.  Bits above the varying range are identical in every key, so
	// their leakage into (k>>shift)&255 shifts every bucket index by the
	// same constant and the bucket order stays the key order.
	shift := uint(0)
	if l := bits.Len32(acc); l > 8 {
		shift = uint(l) - 8
	}

	// Per-worker histograms over contiguous spans.
	clear(hist)
	parallel.Do(w, n, opts, func(t int) {
		lo, hi := parallel.Span(n, w, t)
		h := hist[t*256 : t*256+256]
		for _, k := range keys[lo:hi] {
			h[(k>>shift)&255]++
		}
	})

	// Exclusive prefix sum in (bucket, worker) order: worker t's cursor for
	// bucket b starts after every lower bucket and after bucket b's keys
	// from workers < t — the layout that makes the scatter stable.
	var start [257]int32
	pos := int32(0)
	for b := 0; b < 256; b++ {
		start[b] = pos
		for t := 0; t < w; t++ {
			c := hist[t*256+b]
			hist[t*256+b] = pos
			pos += c
		}
	}
	start[256] = pos

	// Scatter: disjoint write cursors, no synchronisation.
	parallel.Do(w, n, opts, func(t int) {
		lo, hi := parallel.Span(n, w, t)
		h := hist[t*256 : t*256+256]
		for i := lo; i < hi; i++ {
			b := (keys[i] >> shift) & 255
			p := h[b]
			h[b]++
			tmpK[p] = keys[i]
			tmpV[p] = vals[i]
		}
	})

	// Independent bucket sorts, drained by the atomic task counter so skewed
	// bucket sizes balance themselves; each sort lands its bucket back into
	// keys/vals.
	parallel.Do(256, n, opts, func(b int) {
		lo, hi := int(start[b]), int(start[b+1])
		if lo == hi {
			return
		}
		sortBucketInto(tmpK[lo:hi], tmpV[lo:hi], keys[lo:hi], vals[lo:hi])
	})
}

// sortBucketInto stable-sorts the bucket (bk, bv) into (dk, dv); bk and bv
// are scratch after the call.  The keys of a bucket agree on every bit at
// or above the partition bits, so lsd skips the digits up there.
func sortBucketInto(bk, bv, dk, dv []uint32) {
	if len(bk) < insertionThreshold {
		copy(dk, bk)
		copy(dv, bv)
		insertionPairs(dk, dv)
		return
	}
	var h digitHist
	h.count(bk)
	if rk, rv := lsd(bk, bv, dk, dv, &h, 0); &rk[0] != &dk[0] {
		copy(dk, rk)
		copy(dv, rv)
	}
}
