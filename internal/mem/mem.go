// Package mem provides the low-level memory facilities the index structures
// share: cache-line constants, aligned slice allocation, and space accounting.
//
// The paper's structures are laid out so that a tree node coincides with a
// cache line.  Go gives no direct control over heap alignment, so AlignedU32
// over-allocates and re-slices to the requested boundary; the result is a
// plain []uint32 whose first element sits on an aligned address.  Because all
// index directories in this repository are pointer-free integer slices, the
// garbage collector never scans their interiors, which keeps lookups free of
// GC interference.
//
// Huge moves a built key array or directory onto 2 MiB pages.  A CSS-tree
// probe misses the cache once per lower level and once on its leaf line;
// over a 64 MB key array on 4 KiB pages each of those misses also costs a
// page walk, because 16K pages are far more than a second-level TLB holds
// (2,048 entries on current x86).  On 2 MiB pages the same array is 32
// entries.  Huge uses madvise(MADV_COLLAPSE), which rewrites the range onto
// huge pages synchronously and leaves the mapping's flags alone.
// MADV_HUGEPAGE is not used: it marks the range, and marking part of the
// Go heap's mapping splits it into extra VMAs, one more per call.  Only
// the 2 MiB-aligned interior of a slice is collapsed, because the pages at
// either end are shared with neighbouring heap objects that the caller does
// not own.
package mem

import (
	"fmt"
	"unsafe"
)

// CacheLine is the default cache-line size in bytes, matching both the
// paper's Ultra Sparc II L2 (64 B) and every mainstream CPU since.
const CacheLine = 64

// KeyBytes is the size of a key (K in the paper's Table 1).
const KeyBytes = 4

// RIDBytes is the size of a record identifier (R in the paper's Table 1).
const RIDBytes = 4

// PtrBytes is the size of a child pointer in pointer-based structures
// (P in the paper's Table 1).  The paper's 1998 machines had 4-byte
// pointers; our arena-backed structures use 4-byte indices, which keeps
// the space formulas of §5.2 exact.
const PtrBytes = 4

// AlignedU32 returns a zeroed []uint32 of length n whose backing array
// starts on an addresses that is a multiple of align bytes.  align must be
// a power of two and a multiple of 4.
func AlignedU32(n, align int) []uint32 {
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	if align%4 != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a multiple of 4", align))
	}
	if n < 0 {
		panic("mem: negative length")
	}
	pad := align / 4
	raw := make([]uint32, n+pad)
	if n == 0 {
		return raw[:0:0]
	}
	off := 0
	for !IsAligned(unsafe.Pointer(&raw[off]), align) {
		off++
	}
	return raw[off : off+n : off+n]
}

// IsAligned reports whether p is a multiple of align bytes.
func IsAligned(p unsafe.Pointer, align int) bool {
	return uintptr(p)%uintptr(align) == 0
}

// SliceBytes returns the size in bytes of the backing store of a []uint32,
// counting capacity (what the allocation actually holds).
func SliceBytes(s []uint32) int {
	return 4 * cap(s)
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("mem: non-positive divisor")
	}
	return (a + b - 1) / b
}

// NextPow2 returns the smallest power of two ≥ v (v ≥ 1).
func NextPow2(v int) int {
	if v < 1 {
		panic("mem: NextPow2 of non-positive value")
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool {
	return v > 0 && v&(v-1) == 0
}

// Log2 returns ⌊log₂ v⌋ for v ≥ 1.
func Log2(v int) int {
	if v < 1 {
		panic("mem: Log2 of non-positive value")
	}
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}

// Bytes is a human-oriented byte count used in reports.
type Bytes int64

// String formats the byte count the way the paper's figures label axes.
func (b Bytes) String() string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}
