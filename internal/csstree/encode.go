package csstree

import (
	"fmt"
	"io"

	"cssidx/internal/mem"
	"cssidx/internal/snapio"
)

// Serialization lets a built directory be snapshotted and re-attached to
// the same sorted array after a restart, skipping the (cheap but nonzero)
// rebuild.  Only the directory and geometry are stored — the sorted array
// is the caller's, exactly as in memory — plus an FNV-1a fingerprint of the
// keys so a stale snapshot cannot silently attach to a different array.
//
// The snapshot is one snapio frame: magic, version, variant u32, node size
// M u32, key count u64, keys fingerprint u64, directory length u64, the
// directory, and (version 2) the CRC-32C trailer over every byte before it.
// Version 1 — the same layout without the trailer — still loads.

// Encoding constants.
const (
	encMagic   = 0x43535354 // "CSST"
	encVersion = 2

	variantFull  = 1
	variantLevel = 2
)

// writeSnapshot emits one frame of header + directory.
func writeSnapshot(w io.Writer, variant, m int, keys, dir []uint32) (int64, error) {
	sw := snapio.NewWriter(w, encMagic, encVersion)
	sw.U32(uint32(variant))
	sw.U32(uint32(m))
	sw.U64(uint64(len(keys)))
	sw.U64(snapio.FNVU32s(snapio.FNVSeed, keys))
	sw.U64(uint64(len(dir)))
	sw.U32s(dir)
	n, err := sw.Close()
	if err != nil {
		return n, fmt.Errorf("csstree: writing snapshot: %w", err)
	}
	return n, nil
}

// Tree is the read interface shared by both variants, satisfied by *Full
// and *Level; Restore returns it when the snapshot variant is not known in
// advance.
type Tree interface {
	Search(key uint32) int
	LowerBound(key uint32) int
	EqualRange(key uint32) (first, last int)
	SpaceBytes() int
	Levels() int
}

// WriteTo snapshots the directory; restore with ReadFull (or Restore) over
// the same sorted array.
func (t *Full) WriteTo(w io.Writer) (int64, error) {
	return writeSnapshot(w, variantFull, t.g.M, t.keys, t.dir)
}

// WriteTo snapshots the directory; restore with ReadLevel (or Restore) over
// the same sorted array.
func (t *Level) WriteTo(w io.Writer) (int64, error) {
	return writeSnapshot(w, variantLevel, t.g.M, t.keys, t.dir)
}

// Restore reads a snapshot of either variant over keys, which must be the
// identical array the snapshot was taken from (verified by fingerprint).
func Restore(rd io.Reader, keys []uint32) (Tree, error) {
	r := snapio.NewReader(rd)
	magic, version, variant, m := r.U32(), r.U32(), r.U32(), r.U32()
	n, keysHash, dirLen := r.U64(), r.U64(), r.U64()
	var err error
	switch {
	case r.Err() != nil:
		err = fmt.Errorf("csstree: reading snapshot header: %w", r.Err())
	case magic != encMagic:
		err = fmt.Errorf("csstree: bad snapshot magic %#x", magic)
	case version < 1 || version > encVersion:
		err = fmt.Errorf("csstree: unsupported snapshot version %d", version)
	case variant != variantFull && variant != variantLevel:
		err = fmt.Errorf("csstree: unknown variant %d", variant)
	case n != uint64(len(keys)):
		err = fmt.Errorf("csstree: snapshot indexes %d keys, caller supplied %d", n, len(keys))
	case keysHash != snapio.FNVU32s(snapio.FNVSeed, keys):
		err = fmt.Errorf("csstree: snapshot does not match the supplied key array")
	case m < 2 || m > 1<<20:
		err = fmt.Errorf("csstree: implausible node size %d", m)
	}
	if err != nil {
		return nil, err
	}
	// The geometry fixes the directory size before anything is allocated.
	g := LevelGeometry(len(keys), int(m))
	if variant == variantFull {
		g = FullGeometry(len(keys), int(m))
	}
	if dirLen != uint64(g.DirectoryKeys()) {
		return nil, fmt.Errorf("csstree: directory size %d does not match geometry %d", dirLen, g.DirectoryKeys())
	}
	// The aligned directory has room for every value: it is filled in place.
	dir := r.AppendU32s(mem.AlignedU32(int(dirLen), mem.CacheLine)[:0], dirLen)
	if version >= 2 {
		r.Trailer()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("csstree: reading directory: %w", err)
	}
	mem.Huge(dir)
	if variant == variantFull {
		return &Full{keys: keys, dir: dir, g: g}, nil
	}
	return &Level{keys: keys, dir: dir, g: g}, nil
}

// ReadFull restores a full CSS-tree snapshot over keys.
func ReadFull(r io.Reader, keys []uint32) (*Full, error) {
	tr, err := Restore(r, keys)
	if err != nil {
		return nil, err
	}
	full, ok := tr.(*Full)
	if !ok {
		return nil, fmt.Errorf("csstree: snapshot holds a level tree, not a full tree")
	}
	return full, nil
}

// ReadLevel restores a level CSS-tree snapshot over keys.
func ReadLevel(r io.Reader, keys []uint32) (*Level, error) {
	tr, err := Restore(r, keys)
	if err != nil {
		return nil, err
	}
	level, ok := tr.(*Level)
	if !ok {
		return nil, fmt.Errorf("csstree: snapshot holds a full tree, not a level tree")
	}
	return level, nil
}
