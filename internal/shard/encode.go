package shard

// Serialization of a sharded index: the split boundaries plus each shard's
// sorted key array, captured from one frozen View.  Trees are NOT stored —
// the paper's position is that CSS directories rebuild cheaply from the
// sorted arrays (§5.2), so a restore re-runs the builder per shard and
// only the data that cannot be recomputed (boundaries, keys) travels.
// A checksum over the concatenated keys guards against corrupt or
// truncated snapshots restoring silently.
//
// Only uint32 key spaces are encodable: the on-disk format needs a fixed
// key width, and uint32 is the tuned fast path everywhere else too.

import (
	"encoding/binary"
	"fmt"
	"io"

	"cssidx/internal/qcache"
)

// Encoding constants.
const (
	shardEncMagic   = 0x43535348 // "CSSH"
	shardEncVersion = 1
)

// encChunk bounds the entries moved per read/write call: decoding
// allocates in chunk-sized steps that track bytes actually present, so a
// corrupt count in the header fails at EOF instead of ballooning memory,
// and encoding never stages more than one chunk of converted bytes.
const encChunk = 1 << 16

// readU32Chunked reads n little-endian uint32 values, appending to dst
// (which may be nil) chunk by chunk: peak extra memory is one chunk, and
// dst only grows as fast as r actually delivers bytes.
func readU32Chunked(r io.Reader, n uint64, dst []uint32) ([]uint32, error) {
	buf := make([]byte, 4*min(n, encChunk))
	for got := uint64(0); got < n; {
		step := min(n-got, encChunk)
		b := buf[:4*step]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for j := uint64(0); j < step; j++ {
			dst = append(dst, binary.LittleEndian.Uint32(b[4*j:]))
		}
		got += step
	}
	return dst, nil
}

// writeU32Chunked writes vals as little-endian uint32s through a bounded
// staging buffer (binary.Write would stage the whole slice at once).
func writeU32Chunked(w io.Writer, vals []uint32) error {
	buf := make([]byte, 4*min(uint64(len(vals)), encChunk))
	for off := 0; off < len(vals); off += encChunk {
		end := min(off+encChunk, len(vals))
		b := buf[:4*(end-off)]
		for j, v := range vals[off:end] {
			binary.LittleEndian.PutUint32(b[4*j:], v)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// shardHeader is the fixed-size snapshot prefix.
type shardHeader struct {
	Magic    uint32
	Version  uint32
	Shards   uint32
	_        uint32 // alignment / reserved
	N        uint64 // total keys across shards
	KeysHash uint64
}

// hashKeys fingerprints the concatenated shard arrays with the shared
// FNV-1a primitive (internal/qcache).
func hashKeys(parts [][]uint32) uint64 {
	h := uint64(qcache.HashSeed)
	for _, keys := range parts {
		h = qcache.HashU32s(h, keys)
	}
	return h
}

// SaveU32 writes a restartable snapshot of the view's shard partition:
// boundaries, per-shard key counts, and each shard's sorted keys.  Capture
// the View first (Index.View) so the snapshot is one consistent cross-
// shard epoch set even while rebuilds keep publishing.
func SaveU32(w io.Writer, v *View[uint32]) error {
	parts := make([][]uint32, len(v.snaps))
	for i, s := range v.snaps {
		// mergedKeys flattens any delta the snapshot carries, so a snapshot
		// taken mid-delta travels with every absorbed insert and without
		// any tombstoned key.
		parts[i] = s.mergedKeys()
	}
	hd := shardHeader{
		Magic:    shardEncMagic,
		Version:  shardEncVersion,
		Shards:   uint32(len(parts)),
		N:        uint64(v.Len()),
		KeysHash: hashKeys(parts),
	}
	if err := binary.Write(w, binary.LittleEndian, hd); err != nil {
		return fmt.Errorf("shard: writing snapshot header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, v.bounds); err != nil {
		return fmt.Errorf("shard: writing boundaries: %w", err)
	}
	lens := make([]uint64, len(parts))
	for i, keys := range parts {
		lens[i] = uint64(len(keys))
	}
	if err := binary.Write(w, binary.LittleEndian, lens); err != nil {
		return fmt.Errorf("shard: writing shard lengths: %w", err)
	}
	for _, keys := range parts {
		if err := writeU32Chunked(w, keys); err != nil {
			return fmt.Errorf("shard: writing shard keys: %w", err)
		}
	}
	return nil
}

// LoadU32 reads a snapshot written by SaveU32, returning the concatenated
// sorted keys and the split boundaries, validated (magic, version,
// checksum, boundary partition).  Rebuild the index with New(keys, bounds,
// builder) — each shard's tree is reconstructed from its array.
func LoadU32(r io.Reader) (keys, bounds []uint32, err error) {
	var hd shardHeader
	if err := binary.Read(r, binary.LittleEndian, &hd); err != nil {
		return nil, nil, fmt.Errorf("shard: reading snapshot header: %w", err)
	}
	if hd.Magic != shardEncMagic {
		return nil, nil, fmt.Errorf("shard: bad snapshot magic %#x", hd.Magic)
	}
	if hd.Version != shardEncVersion {
		return nil, nil, fmt.Errorf("shard: unsupported snapshot version %d", hd.Version)
	}
	if hd.Shards == 0 {
		return nil, nil, fmt.Errorf("shard: snapshot holds no shards")
	}
	// Sanity-cap the header counts before allocating from them, so a
	// corrupt header becomes an error instead of a multi-gigabyte
	// allocation.  Positions are int32 throughout the batch surfaces, so
	// more than MaxInt32 keys is unrepresentable anyway; the shard cap is
	// far above any real deployment (NewSharded defaults to ≤16).
	const maxShards = 1 << 20
	if hd.Shards > maxShards {
		return nil, nil, fmt.Errorf("shard: implausible shard count %d", hd.Shards)
	}
	if hd.N > 1<<31-1 {
		return nil, nil, fmt.Errorf("shard: implausible key count %d", hd.N)
	}
	bounds, err = readU32Chunked(r, uint64(hd.Shards-1), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: reading boundaries: %w", err)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, nil, fmt.Errorf("shard: snapshot boundaries not strictly ascending at %d", i)
		}
	}
	lens := make([]uint64, 0, min(uint64(hd.Shards), encChunk))
	var lenBuf [8]byte
	total := uint64(0)
	for i := uint32(0); i < hd.Shards; i++ {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, nil, fmt.Errorf("shard: reading shard lengths: %w", err)
		}
		n := binary.LittleEndian.Uint64(lenBuf[:])
		total += n
		if total > hd.N {
			return nil, nil, fmt.Errorf("shard: shard lengths sum past header count %d", hd.N)
		}
		lens = append(lens, n)
	}
	if total != hd.N {
		return nil, nil, fmt.Errorf("shard: shard lengths sum to %d, header says %d", total, hd.N)
	}
	// Chunked decode: the key array grows only as fast as bytes arrive,
	// so hd.N (validated ≤ MaxInt32 but still attacker-chosen) cannot
	// force an allocation beyond ~2× the snapshot's real size.
	keys = make([]uint32, 0, min(total, encChunk))
	for i, n := range lens {
		if keys, err = readU32Chunked(r, n, keys); err != nil {
			return nil, nil, fmt.Errorf("shard: reading shard %d keys: %w", i, err)
		}
	}
	parts := make([][]uint32, hd.Shards)
	off := uint64(0)
	for i, n := range lens {
		parts[i] = keys[off : off+n]
		off += n
	}
	if hashKeys(parts) != hd.KeysHash {
		return nil, nil, fmt.Errorf("shard: snapshot checksum mismatch (corrupt or truncated)")
	}
	// The concatenation must be sorted and respect the boundaries, or the
	// rebuilt shards would disagree with the partition.
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return nil, nil, fmt.Errorf("shard: snapshot keys not sorted at %d", i)
		}
	}
	off = 0
	for i, n := range lens {
		if i > 0 && n > 0 && keys[off] < bounds[i-1] {
			return nil, nil, fmt.Errorf("shard: shard %d starts below its boundary", i)
		}
		if i < len(bounds) && n > 0 && keys[off+n-1] >= bounds[i] {
			return nil, nil, fmt.Errorf("shard: shard %d crosses its boundary", i)
		}
		off += n
	}
	return keys, bounds, nil
}
