// Parallel batch execution: the worker-pool engine over the lockstep
// kernels.  One large probe batch is split into contiguous sub-batches, each
// descends the tree with the existing lockstep kernel on its own worker, and
// results land directly in the caller's output slice — workers write
// disjoint spans, so scatter is free and the hot path allocates nothing per
// batch beyond the worker goroutines.
//
// The lockstep kernel extracts memory-level parallelism *within* one core
// (a group of independent node reads in flight per level); the engine
// multiplies that by the number of cores.  Both compose because the paper's
// trees are immutable directories over immutable arrays: workers share
// read-only state and nothing else.
//
// Sequential fallback: batches smaller than two calibrated worker spans run
// on the calling goroutine through the exact same kernel, so small batches
// pay no scheduling cost and results are bit-identical at every size.

package cssidx

import "cssidx/internal/parallel"

// ParallelOptions tunes the parallel batch engine.  The worker count is the
// one setting; the span each worker gets is ADAPTIVE — the engine times a
// 4096-probe prefix of the first large batch on the calling goroutine,
// derives the smallest per-worker span whose work still dwarfs the goroutine
// handoff from the measured per-probe cost, and caches the value for the
// index's lifetime.  Hot-cache indexes (fast probes) get bigger spans than
// DRAM-missing ones, exactly as the cost asymmetry demands; results are
// bit-identical either way.  BatchCalibration reports the chosen value.
type ParallelOptions struct {
	// Workers is the maximum number of concurrent workers; 0 picks
	// GOMAXPROCS, 1 forces the sequential path.
	Workers int
}

// BatchTuning is implemented by the engines whose worker spans are sized
// adaptively (NewParallel, ShardedIndex).
type BatchTuning interface {
	// BatchCalibration returns the calibrated minimum probes per worker and
	// the measured per-probe cost; ok is false before the first large batch.
	BatchCalibration() (minPerWorker int, perProbeNs float64, ok bool)
}

// NewParallel wraps idx with the parallel batch engine: the returned index
// answers SearchBatch/LowerBoundBatch/EqualRangeBatch by fanning the batch
// across workers (native lockstep kernels per sub-batch when idx has them,
// scalar loops otherwise) and falls back to one worker for small batches.
// Results are bit-identical to the scalar methods at every batch size.
//
// idx's batch methods must be safe for concurrent calls on disjoint probe
// spans; every index built by this package qualifies except *SortedBatch,
// which carries per-call scratch.  NewParallel therefore rejects a
// *SortedBatch outright — compose the other way, NewSortedBatch(NewParallel(
// idx, opts)): sorting stays on the caller and the descent underneath fans
// out.  ShardedIndex's sorted schedule is parallel-safe as-is.
func NewParallel(idx OrderedIndex, opts ParallelOptions) BatchOrderedIndex {
	if _, ok := idx.(*SortedBatch); ok {
		panic("cssidx: NewParallel over a SortedBatch races on its scratch; use NewSortedBatch(NewParallel(idx, opts)) instead")
	}
	p := &parallelBatch{b: AsBatchOrdered(idx), opts: parallel.Options{Workers: opts.Workers}}
	p.opts.Tuner = &p.tuner
	return p
}

// parallelBatch is the engine over any BatchOrderedIndex.
type parallelBatch struct {
	b     BatchOrderedIndex
	opts  parallel.Options
	tuner parallel.Tuner
}

// BatchCalibration reports the adaptive span the engine measured.
func (p *parallelBatch) BatchCalibration() (int, float64, bool) {
	return p.tuner.Calibration()
}

func (p *parallelBatch) Name() string       { return p.b.Name() }
func (p *parallelBatch) SpaceBytes() int    { return p.b.SpaceBytes() }
func (p *parallelBatch) Search(key Key) int { return p.b.Search(key) }
func (p *parallelBatch) LowerBound(key Key) int {
	return p.b.LowerBound(key)
}
func (p *parallelBatch) EqualRange(key Key) (first, last int) { return p.b.EqualRange(key) }

// SearchBatch answers the batch across workers; each worker runs the
// underlying lockstep kernel on its contiguous sub-batch.
func (p *parallelBatch) SearchBatch(probes []Key, out []int32) {
	checkBatchLen(len(probes), len(out))
	parallel.Run(len(probes), p.opts, func(lo, hi int) {
		p.b.SearchBatch(probes[lo:hi], out[lo:hi])
	})
}

// LowerBoundBatch answers the batch across workers.
func (p *parallelBatch) LowerBoundBatch(probes []Key, out []int32) {
	checkBatchLen(len(probes), len(out))
	parallel.Run(len(probes), p.opts, func(lo, hi int) {
		p.b.LowerBoundBatch(probes[lo:hi], out[lo:hi])
	})
}

// EqualRangeBatch answers the batch across workers.
func (p *parallelBatch) EqualRangeBatch(probes []Key, first, last []int32) {
	checkBatchLen(len(probes), len(first))
	checkBatchLen(len(probes), len(last))
	parallel.Run(len(probes), p.opts, func(lo, hi int) {
		p.b.EqualRangeBatch(probes[lo:hi], first[lo:hi], last[lo:hi])
	})
}
