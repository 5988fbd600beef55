package cssidx

import (
	"fmt"
	"io"

	"cssidx/internal/csstree"
	"cssidx/internal/failfs"
	"cssidx/internal/shard"
)

// SaveIndex writes a restartable snapshot of a CSS-tree index (either
// variant) to w.  The snapshot holds the directory and an FNV-1a
// fingerprint of the indexed keys, under a CRC-32C of every byte; the sorted
// array itself is not stored — on restart it is re-attached with LoadIndex,
// which verifies the fingerprint so a stale snapshot cannot silently index
// the wrong data.
//
// Durability is the caller's: SaveIndex only writes to w.  Use
// SaveIndexFile for the atomic temp+fsync+rename commit whose crash
// guarantee is "the previous snapshot or the new one, never a torn
// prefix".
//
// Only CSS-trees are snapshottable: the other methods either need no
// structure (array searches) or rebuild quickly enough that persisting them
// has no benefit over their bulk load.
func SaveIndex(w io.Writer, idx Index) error {
	x, ok := idx.(cssTree)
	if !ok {
		return fmt.Errorf("cssidx: %s does not support snapshots", idx.Name())
	}
	_, err := x.t.WriteTo(w)
	return err
}

// LoadIndex restores a snapshot written by SaveIndex over keys, which must
// be the identical sorted array the snapshot was built from.  A SaveIndex
// snapshot with any bit flipped or cut short returns an error — never a
// panic — and the directory's size is fixed by the keys' geometry before it
// is allocated, so hostile bytes cannot balloon memory.  Snapshots written
// before the CRC-32C trailer (version 1) still load.
func LoadIndex(r io.Reader, keys []Key) (OrderedIndex, error) {
	t, err := csstree.Restore(r, keys)
	if err != nil {
		return nil, err
	}
	return cssTree{t}, nil
}

// SaveSharded writes a restartable snapshot of a sharded index: the
// shard boundaries and every shard's sorted key array, captured from one
// frozen cross-shard view, under a CRC-32C of every byte.  Pending updates not yet absorbed
// by the background rebuilder are not captured; call Sync first when they
// must be.  Unlike SaveIndex, the snapshot is self-contained — shards own
// their arrays after epoch-swaps, so the keys travel with the boundaries.
//
// Like SaveIndex, this writes to w with no durability of its own; see
// SaveShardedFile for the atomic crash-safe commit, and OpenWAL for
// continuous durability of Insert/Delete batches between snapshots.
func SaveSharded(w io.Writer, x *ShardedIndex[uint32]) error {
	return shard.Save(w, x.Snapshot(), 0)
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

// loadFile opens path on fsys, GCs stale temp litter beside it, and hands
// the open file to load.
func loadFile[T any](fsys failfs.FS, path string, load func(io.Reader) (T, error)) (T, error) {
	var zero T
	failfs.RemoveStaleTemps(fsys, path)
	f, err := fsys.Open(path)
	if err != nil {
		return zero, err
	}
	v, err := load(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return zero, err
	}
	return v, nil
}

// SaveIndexFile writes a SaveIndex snapshot to path atomically (temp file +
// fsync + rename + directory fsync).
//
// Crash guarantee: at every instant path holds either the complete
// previous snapshot or the complete new one.  A crash mid-save can leave
// a stale temp file beside it, which the next LoadIndexFile removes.
func SaveIndexFile(path string, idx Index) error {
	return failfs.WriteFileAtomic(failfs.OS, path, func(w io.Writer) error { return SaveIndex(w, idx) })
}

// LoadIndexFile restores a snapshot written by SaveIndexFile over keys,
// first sweeping any stale temp files an interrupted save left beside it.
func LoadIndexFile(path string, keys []Key) (OrderedIndex, error) {
	return loadFile(failfs.OS, path, func(r io.Reader) (OrderedIndex, error) {
		return LoadIndex(r, keys)
	})
}

// SaveShardedFile writes a SaveSharded snapshot to path atomically (temp
// file + fsync + rename + directory fsync); see SaveIndexFile for the
// crash guarantee.
func SaveShardedFile(path string, x *ShardedIndex[uint32]) error {
	return failfs.WriteFileAtomic(failfs.OS, path, func(w io.Writer) error { return SaveSharded(w, x) })
}

// LoadShardedFile restores a snapshot written by SaveShardedFile, first
// sweeping any stale temp files an interrupted save left beside it.
func LoadShardedFile(path string) (*ShardedIndex[uint32], error) {
	return loadFile(failfs.OS, path, LoadSharded)
}
