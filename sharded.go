// Sharded concurrent serving: the §2.3 rebuild cycle made concurrent.  The
// paper's position is that OLAP indexes are read-mostly and absorb batch
// updates by rebuilding rather than by incremental maintenance;
// ShardedIndex turns that into a serving layer.  The key space is
// range-partitioned into N shards of equal key count, each shard's CSS-tree
// sits behind an atomic pointer, and reads are lock-free while a background
// goroutine absorbs batched inserts/deletes per shard — small batches into a
// per-shard delta (an insert run and a tombstone run beside the unchanged
// tree), a delta grown past the fold threshold into a freshly rebuilt tree —
// and publishes each step with an epoch-swap.  The types are those of
// internal/shard, where the methods are documented.
package cssidx

import "cssidx/internal/shard"

// ShardedOptions configures NewSharded.  Its type parameter admits only
// Key, so the spelling ShardedOptions[uint32] names the one options type:
// keys of other value types reach a sharded index through an
// order-preserving dictionary to uint32 (internal/domain.IntDomain), as
// internal/mmdb's columns do.
//
// What the engine decides itself is not an option: each shard's CSS-tree has
// one-cache-line nodes (shard.Slots, as DefaultNodeBytes gives), the split
// gives every shard the same key count, each batch descends in input or key
// order as its sampled duplicate count says, its worker spans follow the
// calibrated per-probe cost, and a shard's delta folds at 1/256 of its base
// (and at least 512 keys) — call Compact for a fold sooner.
type ShardedOptions[K Key] = struct {
	// Shards is the number of range shards; 0 picks GOMAXPROCS (capped at 16).
	Shards int
}

// DeltaStats snapshots the delta layer across shards: base vs delta key
// counts, the tombstone share, outstanding runs, and lifetime absorb/fold
// counters.
type DeltaStats = shard.DeltaStats

// ShardedIndex is a concurrently servable index over a multiset of keys:
// lock-free Search/LowerBound/EqualRange/range scans, batched Insert/Delete
// absorbed by background epoch-swap rebuilds, Snapshot for a frozen
// cross-shard view with stable positions, and Close to release the
// background rebuilder.  Like ShardedOptions, its type parameter admits only
// Key.  SetParallel takes the internal parallel.Options: it is for tests and
// harnesses inside this module only.
type ShardedIndex[K Key] = shard.Index

// ShardedView is a frozen capture of every shard at one point; see
// ShardedIndex.Snapshot.
type ShardedView = shard.View

// NewSharded builds a sharded index over the sorted keys (duplicates
// allowed).  keys is not copied at build; shards own fresh arrays from
// their first epoch-swap on.  Each shard serves from a level CSS-tree.
func NewSharded(keys []Key, opts ShardedOptions[Key]) *ShardedIndex[Key] {
	return shard.New(keys, shard.Boundaries(keys, opts.Shards), shard.Slots)
}
