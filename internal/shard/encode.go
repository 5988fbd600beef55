package shard

// Serialization of a sharded index: the split boundaries plus each shard's
// sorted key array, captured from one frozen View.  Trees are NOT stored —
// the paper's position is that CSS directories rebuild cheaply from the
// sorted arrays (§5.2), so a restore rebuilds each shard's CSS-tree and
// only the data that cannot be recomputed (boundaries, keys) travels.
//
// The snapshot is one snapio frame: magic, version, shard count u32, a
// reserved u32, total keys u64, the log sequence u64 (0 outside a durable
// index), the shard count − 1 boundaries, each shard's key count u64, the
// concatenated keys, and the CRC-32C trailer over every byte before it.
// Version 1 kept an FNV-1a hash of the keys where the sequence now is and
// had no trailer; a DurableSharded wrote its sequence bare in front of it.
// Both still load.  Keys and boundaries are 4-byte little-endian words.

import (
	"fmt"
	"io"
	"slices"

	"cssidx/internal/snapio"
)

// Encoding constants.
const (
	shardEncMagic   = 0x43535348 // "CSSH"
	shardEncVersion = 2
)

// Save writes a restartable snapshot of the view's shard partition,
// recording seq as the log sequence it covers.  Capture the View first
// (Index.Snapshot) so the snapshot is one consistent cross-shard epoch set even
// while rebuilds keep publishing.
func Save(w io.Writer, v *View, seq uint64) error {
	sw := snapio.NewWriter(w, shardEncMagic, shardEncVersion)
	sw.U32(uint32(len(v.snaps)))
	sw.U32(0)
	sw.U64(uint64(v.Len()))
	sw.U64(seq)
	sw.U32s(v.bounds)
	parts := make([][]uint32, len(v.snaps))
	for i, s := range v.snaps {
		// mergedKeys flattens any delta the snapshot carries, so a snapshot
		// taken mid-delta travels with every absorbed insert and without
		// any tombstoned key.
		parts[i] = s.mergedKeys()
		sw.U64(uint64(len(parts[i])))
	}
	for _, keys := range parts {
		sw.U32s(keys)
	}
	if _, err := sw.Close(); err != nil {
		return fmt.Errorf("shard: writing snapshot: %w", err)
	}
	return nil
}

// Load reads a snapshot written by Save, returning the concatenated
// sorted keys, the split boundaries and the log sequence, validated (magic,
// version, checksum, boundary partition).  Rebuild the index with New(keys,
// bounds, m) — each shard's tree is reconstructed from its array.
func Load(rd io.Reader) (keys, bounds []uint32, seq uint64, err error) {
	r := snapio.NewReader(rd)
	magic, version, shards, reserved := r.U32(), r.U32(), r.U32(), r.U32()
	if shards == shardEncMagic && reserved == 1 {
		// A version-1 DurableSharded snapshot: the bare log sequence, then
		// the frame.  No valid shard count equals the magic, so this holds
		// whatever the sequence is.
		seq = uint64(magic) | uint64(version)<<32
		magic, version, shards, _ = shards, reserved, r.U32(), r.U32()
	}
	n, slot := r.U64(), r.U64()
	bad := func(format string, args ...any) ([]uint32, []uint32, uint64, error) {
		return nil, nil, 0, fmt.Errorf("shard: "+format, args...)
	}
	// Sanity-cap the header counts before reading by them.  Positions are
	// int32 throughout the batch surfaces, so more than MaxInt32 keys is
	// unrepresentable anyway; the shard cap is far above any real
	// deployment (NewSharded defaults to ≤16).
	switch {
	case r.Err() != nil:
		return bad("reading snapshot header: %w", r.Err())
	case magic != shardEncMagic:
		return bad("bad snapshot magic %#x", magic)
	case version < 1 || version > shardEncVersion:
		return bad("unsupported snapshot version %d", version)
	case shards == 0:
		return bad("snapshot holds no shards")
	case shards > 1<<20:
		return bad("implausible shard count %d", shards)
	case n > 1<<31-1:
		return bad("implausible key count %d", n)
	}
	bounds = r.AppendU32s(nil, uint64(shards-1))
	var lens []uint64
	total := uint64(0)
	for i := uint32(0); i < shards && r.Err() == nil; i++ {
		k := r.U64()
		if total += k; total > n {
			return bad("shard lengths sum past header count %d", n)
		}
		lens = append(lens, k)
	}
	if total != n && r.Err() == nil {
		return bad("shard lengths sum to %d, header says %d", total, n)
	}
	keys = r.AppendU32s(nil, total)
	if version == 1 {
		if r.Err() == nil && snapio.FNVU32s(snapio.FNVSeed, keys) != slot {
			return bad("snapshot checksum mismatch (corrupt or truncated)")
		}
	} else {
		seq = slot
		r.Trailer()
	}
	if err := r.Err(); err != nil {
		return bad("reading snapshot: %w", err)
	}
	// The boundaries must be strictly ascending and the concatenation
	// sorted within them, or the rebuilt shards would disagree with the
	// partition.
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return bad("snapshot boundaries not strictly ascending at %d", i)
		}
	}
	if !slices.IsSorted(keys) {
		return bad("snapshot keys not sorted")
	}
	off := uint64(0)
	for i, k := range lens {
		if i > 0 && k > 0 && keys[off] < bounds[i-1] {
			return bad("shard %d starts below its boundary", i)
		}
		if i < len(bounds) && k > 0 && keys[off+k-1] >= bounds[i] {
			return bad("shard %d crosses its boundary", i)
		}
		off += k
	}
	return keys, bounds, seq, nil
}
