// Sharded concurrent serving: the §2.3 rebuild cycle made concurrent.  The
// paper's position is that OLAP indexes are read-mostly and absorb batch
// updates by rebuilding rather than by incremental maintenance;
// ShardedIndex turns that into a serving layer.  The key space is
// range-partitioned across N shards (equal-count by default, or skew-aware
// from a probe sample), each shard's CSS-tree sits behind an atomic
// pointer, and reads are lock-free while a background goroutine absorbs
// batched inserts/deletes per shard — small batches into a per-shard delta
// (an insert run and a tombstone run beside the unchanged tree), a delta
// grown past the fold threshold into a freshly rebuilt tree — and publishes
// each step with an epoch-swap.  See internal/shard for the machinery.
package cssidx

import (
	"runtime"

	"cssidx/internal/shard"
)

// ShardedOptions configures NewSharded; see shardedOptions for the fields.
// Its type parameter admits only Key, so the spelling ShardedOptions[uint32]
// names the one options type: keys of other value types reach a sharded
// index through an order-preserving dictionary to uint32
// (internal/domain.IntDomain), as internal/mmdb's columns do.
type ShardedOptions[K Key] = shardedOptions

// shardedOptions is the type behind ShardedOptions[Key].  What the engine
// decides itself is not an option: each shard's CSS-tree has
// one-cache-line nodes (16 slots, as DefaultNodeBytes gives), each batch
// descends in input or key order as its sampled duplicate count says, and a
// shard's delta folds at 1/512 of its base (and at least 512 keys) — call
// Compact for a fold sooner.
type shardedOptions struct {
	// Shards is the number of range shards; 0 picks GOMAXPROCS (capped at 16).
	Shards int
	// SkewSample, when non-empty, is a sample of the expected lookup
	// distribution (e.g. workload.Gen.ZipfLookups); shard boundaries are
	// then placed at its quantiles so each shard receives roughly equal
	// traffic instead of roughly equal keys.
	SkewSample []Key
	// Parallel tunes the batch worker pool.  The zero value is the
	// default engine — GOMAXPROCS workers, sequential below ~4k probes;
	// set Workers to 1 to keep batches on the calling goroutine.
	Parallel ParallelOptions
}

// DeltaStats snapshots the delta layer across shards: base vs delta key
// counts, the tombstone share, outstanding runs, and lifetime absorb/fold
// counters.
type DeltaStats = shard.DeltaStats

// ShardedIndex is a concurrently servable index over a multiset of keys:
// lock-free Search/LowerBound/EqualRange/range scans, batched Insert/Delete
// absorbed by background epoch-swap rebuilds.  Like ShardedOptions, its
// type parameter admits only Key; the methods are shardedIndex's.
//
// Positions follow the same convention as every other index in this
// package — offsets into the (conceptual) sorted key array, here the
// concatenation of the shard arrays in key order.  While rebuilds of other
// shards are in flight, a global position reflects each shard's own latest
// epoch; use Snapshot for a frozen cross-shard view with stable positions.
//
// Close releases the background rebuilder when the index is done serving.
type ShardedIndex[K Key] = shardedIndex

// shardedIndex is the type behind ShardedIndex[Key].
type shardedIndex struct {
	ix *shard.Index
}

// NewSharded builds a sharded index over the sorted keys (duplicates
// allowed).  keys is not copied at build; shards own fresh arrays from
// their first epoch-swap on.  Each shard serves from a level CSS-tree.
func NewSharded(keys []Key, opts ShardedOptions[Key]) *ShardedIndex[Key] {
	ns := opts.Shards
	if ns <= 0 {
		ns = runtime.GOMAXPROCS(0)
		if ns > 16 {
			ns = 16
		}
	}
	bounds := shard.WeightedBoundaries(keys, opts.SkewSample, ns)
	return newShardedFrom(keys, bounds, opts)
}

// newShardedFrom wires a sharded index over an explicit partition with the
// worker-pool options — the shared construction tail of NewSharded and
// LoadSharded, so a restored index can never diverge from a fresh build.
func newShardedFrom(keys, bounds []Key, opts ShardedOptions[Key]) *ShardedIndex[Key] {
	ix := shard.New(keys, bounds, slotsFor(DefaultNodeBytes))
	ix.SetParallel(opts.Parallel.engine())
	return &shardedIndex{ix: ix}
}

// Search returns the global position of the leftmost occurrence of key, or -1.
func (x *shardedIndex) Search(key Key) int { return x.ix.Search(key) }

// LowerBound returns the smallest global position whose key is ≥ key, or Len().
func (x *shardedIndex) LowerBound(key Key) int { return x.ix.LowerBound(key) }

// EqualRange returns the half-open global position range of occurrences of
// key; duplicates of a key always live in one shard, so the range is exact.
func (x *shardedIndex) EqualRange(key Key) (first, last int) { return x.ix.EqualRange(key) }

// SearchBatch stores Search(probes[i]) into out[i] for every probe
// (len(out) must equal len(probes)).  The probes are partitioned by shard
// boundaries, each shard's group descends its tree in lockstep, and large
// batches fan the per-shard runs across the worker pool
// (ShardedOptions.Parallel) — all against one frozen snapshot, so a batch
// never mixes epochs even while rebuilds publish concurrently.  Results are
// bit-identical to the scalar calls against that snapshot, in either probe
// order and under every worker count.
func (x *shardedIndex) SearchBatch(probes []Key, out []int32) { x.ix.SearchBatch(probes, out) }

// LowerBoundBatch stores LowerBound(probes[i]) into out[i] for every probe;
// see SearchBatch for the batch execution model.
func (x *shardedIndex) LowerBoundBatch(probes []Key, out []int32) { x.ix.LowerBoundBatch(probes, out) }

// EqualRangeBatch stores EqualRange(probes[i]) into (first[i], last[i]); all
// three slices must have equal length.
func (x *shardedIndex) EqualRangeBatch(probes []Key, first, last []int32) {
	x.ix.EqualRangeBatch(probes, first, last)
}

// Len returns the total number of keys.
func (x *shardedIndex) Len() int { return x.ix.Len() }

// ShardCount returns the number of range shards.
func (x *shardedIndex) ShardCount() int { return x.ix.ShardCount() }

// Bounds returns the shard split boundaries (len = ShardCount()-1,
// strictly ascending): shard i serves keys < Bounds()[i], the last shard
// the rest.  Observability surfaces use it to report which shards a range
// touches.
func (x *shardedIndex) Bounds() []Key { return x.ix.Bounds() }

// Epochs returns each shard's current epoch (1 = initial build; +1 per
// published rebuild).
func (x *shardedIndex) Epochs() []uint64 { return x.ix.Epochs() }

// BatchCalibration reports the adaptive worker-span calibration (see
// BatchTuning): the derived MinBatchPerWorker and measured per-probe cost;
// ok is false before any batch was large enough to calibrate.
func (x *shardedIndex) BatchCalibration() (minPerWorker int, perProbeNs float64, ok bool) {
	return x.ix.BatchCalibration()
}

// Insert enqueues keys for insertion; they become visible at the affected
// shards' next epoch-swaps (Sync waits for that).
func (x *shardedIndex) Insert(keys ...Key) { x.ix.Insert(keys...) }

// Delete enqueues keys for deletion (multiset semantics: one occurrence per
// requested key; absent keys are ignored).
func (x *shardedIndex) Delete(keys ...Key) { x.ix.Delete(keys...) }

// Sync blocks until every update enqueued before the call is visible.
func (x *shardedIndex) Sync() { x.ix.Sync() }

// DeltaStats snapshots the delta layer: how many keys sit in immutable
// base arrays vs the outstanding delta (insert-run keys and tombstones),
// and the lifetime absorb and fold counters.
func (x *shardedIndex) DeltaStats() DeltaStats { return x.ix.DeltaStats() }

// Compact absorbs any pending updates, folds every shard's outstanding
// delta into fresh base arrays and trees, and blocks until the folds are
// published — the manual counterpart of the size-triggered fold.
func (x *shardedIndex) Compact() { x.ix.Compact() }

// Close flushes pending updates and stops the background rebuilder.
// The index remains readable; Close is idempotent.
func (x *shardedIndex) Close() { x.ix.Close() }

// Ascend calls fn for every key in the half-open value range [lo, hi) in
// ascending order over a frozen snapshot, with the key's global position;
// fn returning false stops the scan.
func (x *shardedIndex) Ascend(lo, hi Key, fn func(pos int, key Key) bool) {
	x.Snapshot().Ascend(lo, hi, fn)
}

// Snapshot captures a frozen cross-shard view: repeatable reads with stable
// global positions, unaffected by concurrent epoch-swaps.  Snapshots are
// cheap (one atomic load per shard, no copying).
func (x *shardedIndex) Snapshot() *ShardedView {
	return &ShardedView{v: x.ix.View()}
}

// ShardedView is a frozen capture of every shard at one point; see
// ShardedIndex.Snapshot.  The view inherits the index's worker-pool options.
type ShardedView struct {
	v *shard.View
}

// Len returns the number of keys in the view.
func (s *ShardedView) Len() int { return s.v.Len() }

// Epochs returns the epoch of each captured shard snapshot — the
// invalidation token consumers (result caches, snapshot save/restore)
// identify this frozen state by.
func (s *ShardedView) Epochs() []uint64 { return s.v.Epochs() }

// Key returns the key at a global position in the view.
func (s *ShardedView) Key(pos int) Key { return s.v.Key(pos) }

// Search returns the position of the leftmost occurrence of key, or -1.
func (s *ShardedView) Search(key Key) int { return s.v.Search(key) }

// LowerBound returns the smallest position whose key is ≥ key, or Len().
func (s *ShardedView) LowerBound(key Key) int { return s.v.LowerBound(key) }

// EqualRange returns the half-open position range of occurrences of key.
func (s *ShardedView) EqualRange(key Key) (first, last int) { return s.v.EqualRange(key) }

// SearchBatch answers a whole probe batch against the frozen view; results
// are bit-identical to the scalar calls (see ShardedIndex.SearchBatch).
func (s *ShardedView) SearchBatch(probes []Key, out []int32) {
	s.v.SearchBatch(probes, out)
}

// LowerBoundBatch answers a whole probe batch against the frozen view.
func (s *ShardedView) LowerBoundBatch(probes []Key, out []int32) {
	s.v.LowerBoundBatch(probes, out)
}

// EqualRangeBatch answers a whole probe batch against the frozen view.
func (s *ShardedView) EqualRangeBatch(probes []Key, first, last []int32) {
	s.v.EqualRangeBatch(probes, first, last)
}

// Ascend calls fn for every key in [lo, hi) ascending, with its position;
// fn returning false stops the scan.  The scan is the merging cross-shard
// range iterator of internal/shard.
func (s *ShardedView) Ascend(lo, hi Key, fn func(pos int, key Key) bool) {
	for it := s.v.Range(lo, hi); ; {
		k, pos, ok := it.Next()
		if !ok || !fn(pos, k) {
			return
		}
	}
}
