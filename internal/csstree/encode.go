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

// WriteTo snapshots the directory; restore with Restore over the same
// sorted array.  The variant byte comes from the geometry.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	variant := variantLevel
	if t.g.IsFull() {
		variant = variantFull
	}
	sw := snapio.NewWriter(w, encMagic, encVersion)
	sw.U32(uint32(variant))
	sw.U32(uint32(t.g.M))
	sw.U64(uint64(len(t.keys)))
	sw.U64(snapio.FNVU32s(snapio.FNVSeed, t.keys))
	sw.U64(uint64(len(t.dir)))
	sw.U32s(t.dir)
	n, err := sw.Close()
	if err != nil {
		return n, fmt.Errorf("csstree: writing snapshot: %w", err)
	}
	return n, nil
}

// Restore reads a snapshot of either variant over keys, which must be the
// identical array the snapshot was taken from (verified by fingerprint).  A
// level snapshot whose node size BuildLevel would refuse is an error.
func Restore(rd io.Reader, keys []uint32) (*Tree, error) {
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
	g := FullGeometry(len(keys), int(m))
	if variant == variantLevel {
		if err := CheckLevelSlots(int(m)); err != nil {
			return nil, fmt.Errorf("csstree: snapshot: %w", err)
		}
		g = LevelGeometry(len(keys), int(m))
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
	return &Tree{keys: keys, dir: dir, g: g}, nil
}
