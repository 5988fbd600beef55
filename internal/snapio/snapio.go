// Package snapio is the one snapshot frame of this module.  A CSS-tree
// directory is an array computed from the sorted keys, so every persisted
// image here — CSS-tree directories, sharded key arrays, durable-table
// columns, the write-ahead log's header — is a few scalars and flat uint32
// arrays, framed alike:
//
//	magic u32 | version u32 | fields, little-endian | crc u32
//
// where crc is the CRC-32C of every byte before it.  Writer stages output
// through a bounded buffer; Reader decodes arrays in steps that grow only
// with the bytes already read, so a hostile length fails at EOF instead of
// forcing a large allocation.  Both keep their first error and make later
// calls no-ops, so a caller checks once.
package snapio

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
)

const (
	chunk   = 1 << 18 // the staging bound of both halves, in bytes
	minStep = 1 << 10 // a Reader's array step before it has read this much
)

// ErrChecksum reports a frame whose trailer does not match its bytes.
var ErrChecksum = errors.New("snapio: checksum mismatch (corrupt or truncated)")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC extends a running CRC-32C with b.  The write-ahead log's records use
// it too.
func CRC(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// Writer encodes one frame.
type Writer struct {
	w   io.Writer
	buf []byte // staged bytes, not yet folded into crc
	crc uint32
	n   int64
	err error
}

// NewWriter starts a frame on w with its magic and version.
func NewWriter(w io.Writer, magic, version uint32) *Writer {
	sw := &Writer{w: w}
	sw.U32(magic)
	sw.U32(version)
	return sw
}

// room flushes the staged bytes when k more would overflow the buffer.
func (w *Writer) room(k int) {
	if len(w.buf)+k <= chunk {
		return
	}
	w.crc = CRC(w.crc, w.buf)
	if w.err == nil {
		var n int
		n, w.err = w.w.Write(w.buf)
		w.n += int64(n)
	}
	w.buf = w.buf[:0]
}

// U32 writes v.
func (w *Writer) U32(v uint32) {
	w.room(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 writes v.
func (w *Writer) U64(v uint64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// String writes the bytes of s (the caller writes its length).
func (w *Writer) String(s string) {
	for len(s) > 0 {
		w.room(1)
		k := min(len(s), chunk-len(w.buf))
		w.buf, s = append(w.buf, s[:k]...), s[k:]
	}
}

// U32s writes vs (the caller writes its length).
func (w *Writer) U32s(vs []uint32) {
	for len(vs) > 0 {
		w.room(4)
		k := min(len(vs), (chunk-len(w.buf))/4)
		buf := slices.Grow(w.buf, 4*k) // a local slice appends fastest
		for _, v := range vs[:k] {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		w.buf, vs = buf, vs[k:]
	}
}

// Close ends the frame with its CRC-32C trailer and flushes it; a frame of
// at most chunk bytes goes out in one Write.
func (w *Writer) Close() (int64, error) {
	w.room(4)
	w.U32(CRC(w.crc, w.buf))
	w.room(chunk)
	return w.n, w.err
}

// Reader decodes one frame.  After the first error every read returns
// zero values and Err reports that error.
type Reader struct {
	r     io.Reader
	crc   uint32
	n     int64 // bytes read
	err   error
	small [8]byte
	buf   []byte // array staging, at most chunk bytes
}

// NewReader reads a frame from r.  The caller reads the magic and version
// with U32 and judges them itself.  A Reader consumes exactly the bytes it
// decodes, so whatever follows the frame in r stays unread.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err reports the first error: a short read or ErrChecksum.
func (r *Reader) Err() error { return r.err }

// fill reads exactly len(b) bytes into b and folds them into the CRC; after
// an error b is zeroed.
func (r *Reader) fill(b []byte) bool {
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
		r.crc = CRC(r.crc, b)
		r.n += int64(len(b))
	}
	if r.err != nil {
		clear(b)
	}
	return r.err == nil
}

// U32 reads one uint32.
func (r *Reader) U32() uint32 {
	r.fill(r.small[:4])
	return binary.LittleEndian.Uint32(r.small[:4])
}

// U64 reads one uint64.
func (r *Reader) U64() uint64 {
	r.fill(r.small[:8])
	return binary.LittleEndian.Uint64(r.small[:8])
}

// step reads the next piece of an array with left items of size bytes
// each: at most chunk bytes, and at most the bytes read so far (minStep at
// the start), so the staging buffer and the caller's array grow only with
// input actually present.  It returns nil when done or after an error.
func (r *Reader) step(left uint64, size int) []byte {
	k := int(min(left, uint64(max(r.n, minStep))/uint64(size), chunk/uint64(size))) * size
	r.buf = slices.Grow(r.buf[:0], k)[:k]
	if k == 0 || !r.fill(r.buf) {
		return nil
	}
	return r.buf
}

// String reads n bytes.
func (r *Reader) String(n uint64) string {
	var out []byte
	for b := r.step(n, 1); b != nil; b = r.step(n, 1) {
		out, n = append(out, b...), n-uint64(len(b))
	}
	return string(out)
}

// AppendU32s reads n values, appending them to dst.  A dst with room for
// all n is filled in place.
func (r *Reader) AppendU32s(dst []uint32, n uint64) []uint32 {
	for b := r.step(n, 4); b != nil; b = r.step(n, 4) {
		dst = slices.Grow(dst, len(b)/4)
		for i := 0; i < len(b); i += 4 {
			dst = append(dst, binary.LittleEndian.Uint32(b[i:]))
		}
		n -= uint64(len(b) / 4)
	}
	return dst
}

// Trailer reads the frame's CRC-32C and checks it against every byte read
// before it, recording ErrChecksum on a mismatch.
func (r *Reader) Trailer() {
	want := r.crc
	if got := r.U32(); r.err == nil && got != want {
		r.err = ErrChecksum
	}
}

// FNVSeed is the FNV-1a 64 offset basis, the seed of the folds below.  They
// are frozen: version-1 files, written before the CRC trailer, are checked
// with them.
const FNVSeed uint64 = 14695981039346656037

const fnvPrime = 1099511628211

// FNVU32s folds vs into a running FNV-1a 64 hash, one little-endian byte
// per multiply: the version-1 checksum of sharded and durable-table
// snapshots.
func FNVU32s(h uint64, vs []uint32) uint64 {
	for _, v := range vs {
		for range 4 {
			h = (h ^ uint64(v&0xff)) * fnvPrime
			v >>= 8
		}
	}
	return h
}

// FNVString folds s and a 0xff terminator into a running FNV-1a 64 hash.
func FNVString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}
