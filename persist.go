package cssidx

import (
	"io"

	"cssidx/internal/failfs"
)

// A CSS-tree's directory is derived from its sorted array in one batch pass,
// so no snapshot stores a directory: a standalone tree is rebuilt with
// NewFullCSS or NewLevelCSS over the same keys, and a sharded index is
// persisted as its keys and shard boundaries and rebuilt on load.

// SaveSharded writes a restartable snapshot of a sharded index: the shard
// boundaries and every shard's sorted key array, captured from one frozen
// cross-shard view after every Insert/Delete that returned has become
// visible, under a CRC-32C of every byte.  It is the frame a DurableSharded
// checkpoint writes, with log sequence 0.
//
// Durability is the caller's: SaveSharded only writes to w.  Use
// SaveShardedFile for the atomic crash-safe commit, and OpenWAL for
// continuous durability of Insert/Delete batches between snapshots.
func SaveSharded(w io.Writer, x *ShardedIndex[uint32]) error {
	return shardCodec{}.Save(w, x, 0)
}

// LoadSharded restores a snapshot written by SaveSharded, rebuilding each
// shard's CSS-tree from its key array (building is the cheap half of the
// paper's rebuild-don't-maintain cycle); the partition comes from the
// snapshot.  A SaveSharded snapshot with any bit flipped or cut short
// returns an error — never a panic — and arrays are read in steps that grow
// only with the bytes present, so absurd length prefixes cannot force huge
// allocations.  It also loads a DurableSharded snapshot, ignoring the log
// sequence it records, and snapshots written before the CRC-32C trailer
// (version 1).
func LoadSharded(r io.Reader) (*ShardedIndex[uint32], error) {
	x, _, err := shardCodec{}.Load(r)
	return x, err
}

// SaveShardedFile writes a SaveSharded snapshot to path atomically (temp
// file + fsync + rename + directory fsync).
//
// Crash guarantee: at every instant path holds either the complete
// previous snapshot or the complete new one.  A crash mid-save can leave
// a stale temp file beside it, which the next LoadShardedFile removes.
func SaveShardedFile(path string, x *ShardedIndex[uint32]) error {
	return failfs.WriteFileAtomic(failfs.OS, path, func(w io.Writer) error { return SaveSharded(w, x) })
}

// LoadShardedFile restores a snapshot written by SaveShardedFile, first
// sweeping any stale temp files an interrupted save left beside it.
func LoadShardedFile(path string) (*ShardedIndex[uint32], error) {
	failfs.RemoveStaleTemps(failfs.OS, path)
	f, err := failfs.OS.Open(path)
	if err != nil {
		return nil, err
	}
	x, err := LoadSharded(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		x.Close()
		x, err = nil, cerr
	}
	return x, err
}
