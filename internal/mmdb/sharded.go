package mmdb

// The sharded search structure: BuildShardedIndex builds a SortedIndex whose
// sorted keys — the column's values — are searched by a frozen shard.View —
// range partitions of level CSS-trees answering probe batches across cores —
// instead of one cssidx method.  It is a structure choice and nothing more:
// the index publishes frozen epochs, caches and folds like any other, the
// planner treats it as one more ordered method, and only EXPLAIN (the shards
// a range touched) and SpaceBytes read which structure is underneath.  A
// column absorbs appends in its own delta runs and folds by rebuilding, so
// nothing ever inserts into the shards: they are built frozen, with no
// background rebuilder.

import (
	"cssidx"
	"cssidx/internal/shard"
)

// BuildShardedIndex builds an index on the column whose keys are searched by
// a sharded structure, and registers it, replacing the column's earlier
// index; shards ≤ 0 picks the default count (GOMAXPROCS, capped at 16).
// Each shard is a level CSS-tree with one-cache-line nodes.
func (t *Table) BuildShardedIndex(colName string, shards int) (*SortedIndex, error) {
	return t.buildIndex(colName, cssidx.KindLevelCSS, func(s *segment) {
		v := shard.Freeze(s.keys, shard.Boundaries(s.keys, shards), shard.Slots)
		s.ord, s.shards, s.bytes = v, v, 4*v.Len()
	})
}

// ShardedIndex returns the column's index when BuildShardedIndex built it.
func (t *Table) ShardedIndex(colName string) (*SortedIndex, bool) {
	ix, ok := t.indexes[colName]
	if !ok || ix.cur.Load().shards == nil {
		return nil, false
	}
	return ix, true
}
