package csstree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"cssidx/internal/mem"
)

// Serialization lets a built directory be snapshotted and re-attached to
// the same sorted array after a restart, skipping the (cheap but nonzero)
// rebuild.  Only the directory and geometry are stored — the sorted array
// is the caller's, exactly as in memory — plus a checksum of the keys so a
// stale snapshot cannot silently attach to a different array.

// Encoding constants.
const (
	encMagic   = 0x43535354 // "CSST"
	encVersion = 1

	variantFull  = 1
	variantLevel = 2
)

// header is the fixed-size snapshot prefix.
type header struct {
	Magic    uint32
	Version  uint32
	Variant  uint32
	M        uint32
	N        uint64
	KeysHash uint64
	DirLen   uint64
}

// keysHash fingerprints the indexed array (FNV-1a over the raw keys).
func keysHash(keys []uint32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[:], k)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// writeSnapshot emits header + directory.
func writeSnapshot(w io.Writer, variant, m int, keys, dir []uint32) (int64, error) {
	hd := header{
		Magic:    encMagic,
		Version:  encVersion,
		Variant:  uint32(variant),
		M:        uint32(m),
		N:        uint64(len(keys)),
		KeysHash: keysHash(keys),
		DirLen:   uint64(len(dir)),
	}
	if err := binary.Write(w, binary.LittleEndian, hd); err != nil {
		return 0, fmt.Errorf("csstree: writing snapshot header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, dir); err != nil {
		return 0, fmt.Errorf("csstree: writing directory: %w", err)
	}
	return int64(binary.Size(hd)) + int64(4*len(dir)), nil
}

// readSnapshot parses and validates a snapshot against the caller's keys.
func readSnapshot(r io.Reader, keys []uint32) (variant, m int, dir []uint32, err error) {
	var hd header
	if err := binary.Read(r, binary.LittleEndian, &hd); err != nil {
		return 0, 0, nil, fmt.Errorf("csstree: reading snapshot header: %w", err)
	}
	if hd.Magic != encMagic {
		return 0, 0, nil, fmt.Errorf("csstree: bad snapshot magic %#x", hd.Magic)
	}
	if hd.Version != encVersion {
		return 0, 0, nil, fmt.Errorf("csstree: unsupported snapshot version %d", hd.Version)
	}
	if hd.Variant != variantFull && hd.Variant != variantLevel {
		return 0, 0, nil, fmt.Errorf("csstree: unknown variant %d", hd.Variant)
	}
	if hd.N != uint64(len(keys)) {
		return 0, 0, nil, fmt.Errorf("csstree: snapshot indexes %d keys, caller supplied %d", hd.N, len(keys))
	}
	if hd.KeysHash != keysHash(keys) {
		return 0, 0, nil, fmt.Errorf("csstree: snapshot does not match the supplied key array")
	}
	// M bounds the directory-size plausibility check below, so validate
	// it first: an attacker-chosen M must not license a giant allocation.
	if hd.M < 2 || hd.M > 1<<20 {
		return 0, 0, nil, fmt.Errorf("csstree: implausible node size %d", hd.M)
	}
	if hd.DirLen > uint64(len(keys))+uint64(hd.M) {
		return 0, 0, nil, fmt.Errorf("csstree: implausible directory size %d", hd.DirLen)
	}
	dir = mem.AlignedU32(int(hd.DirLen), mem.CacheLine)
	if err := binary.Read(r, binary.LittleEndian, dir); err != nil {
		return 0, 0, nil, fmt.Errorf("csstree: reading directory: %w", err)
	}
	mem.Huge(dir)
	return int(hd.Variant), int(hd.M), dir, nil
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
// identical array the snapshot was taken from (verified by checksum).
func Restore(r io.Reader, keys []uint32) (Tree, error) {
	variant, m, dir, err := readSnapshot(r, keys)
	if err != nil {
		return nil, err
	}
	switch variant {
	case variantFull:
		g := FullGeometry(len(keys), m)
		if g.DirectoryKeys() != len(dir) {
			return nil, fmt.Errorf("csstree: directory size %d does not match geometry %d", len(dir), g.DirectoryKeys())
		}
		return &Full{keys: keys, dir: dir, g: g}, nil
	default:
		g := LevelGeometry(len(keys), m)
		if g.DirectoryKeys() != len(dir) {
			return nil, fmt.Errorf("csstree: directory size %d does not match geometry %d", len(dir), g.DirectoryKeys())
		}
		return &Level{keys: keys, dir: dir, g: g}, nil
	}
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
