package mmdb

// The sharded search structure: BuildShardedIndex builds a SortedIndex whose
// sorted domain-ID keys are searched by a cssidx.ShardedIndex — range
// partitions of level CSS-trees answering probe batches across cores —
// instead of one cssidx method.  It is a structure choice and nothing more:
// the index publishes frozen epochs, caches and folds like any other, the
// planner treats it as one more ordered method, and only EXPLAIN (the shards
// a range touched) and SpaceBytes read which structure is underneath.

import "cssidx"

// BuildShardedIndex builds an index on the column whose keys are searched by
// a sharded index, and registers it, replacing (and closing) the column's
// earlier index; shards ≤ 0 picks the cssidx default (GOMAXPROCS, capped at
// 16).  Close releases the sharded index's background rebuilder.
func (t *Table) BuildShardedIndex(colName string, shards int) (*SortedIndex, error) {
	return t.buildIndex(colName, cssidx.KindLevelCSS, func(s *segment) {
		idx := cssidx.NewSharded(s.keys, cssidx.ShardedOptions[uint32]{Shards: shards})
		// Nothing inserts into idx after its build, so one frozen view of
		// every shard serves the epoch's reads with no per-call capture.
		s.ord, s.shards, s.bytes = idx.Snapshot(), idx, 4*idx.Len()
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
