package csstree

import (
	"syscall"
	"testing"
	"unsafe"

	"cssidx/internal/binsearch"
)

// guardedU32 returns a slice of exactly slots words whose last byte is the
// last byte of a mapping: the page after it is PROT_NONE, so one word read
// past the slice faults instead of silently reading a neighbour.
func guardedU32(t *testing.T, slots int) []uint32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (slots*4+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory: nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	if slots == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[size-page-slots*4])), slots)
}

// TestBatchCorruptDirectoryAgainstGuardPage is the memory-safety contract
// of the level-pass kernel with the hardware checking it: directories of
// random words, all-ones and zeroes that end at the last byte before an
// unreadable page, descended under every tier.  A node read past lNode, or
// a vector load running off the last node, faults.
func TestBatchCorruptDirectoryAgainstGuardPage(t *testing.T) {
	forEachKernel(t, func(kern binsearch.Kernel) {
		for _, m := range []int{8, 16} {
			checkCorruptDirectories(t, kern, m, func(slots int) []uint32 { return guardedU32(t, slots) })
		}
	})
}
