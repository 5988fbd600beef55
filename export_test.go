package cssidx

// Hooks for the external cssidx_test package.

// NewParallelSpan is NewParallel with the per-worker span pinned at
// minPerWorker probes instead of calibrated, so a test can force the
// fan-out at small batch sizes.
func NewParallelSpan(idx OrderedIndex, workers, minPerWorker int) BatchOrderedIndex {
	p := NewParallel(idx, ParallelOptions{Workers: workers}).(*parallelBatch)
	p.opts.MinBatchPerWorker = minPerWorker
	return p
}
