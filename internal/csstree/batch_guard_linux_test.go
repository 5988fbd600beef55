package csstree

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"

	"cssidx/internal/binsearch"
	"cssidx/internal/workload"
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

// TestBatchKeysAgainstGuardPage puts the key array against the guard page:
// trees over it, probed at its last keys, must answer as the scalar methods
// do under every tier.  With n a multiple of 16 the last leaf is a whole
// cache line, so the leaf-answer pass's vector loads end at the array's
// last byte; otherwise it is partial and the per-probe search must stop at
// n.
func TestBatchKeysAgainstGuardPage(t *testing.T) {
	g := workload.New(187)
	forEachKernel(t, func(kern binsearch.Kernel) {
		for _, n := range []int{16, 4096, 70000, 70001, 70015} {
			keys := guardedU32(t, n)
			copy(keys, g.SortedWithDuplicates(n, 3))
			probes := batchProbePool(g, keys, 3*groupWidth+5)
			for _, k := range keys[max(n-20, 0):] {
				probes = append(probes, k-1, k, k+1)
			}
			for _, m := range []int{8, 16} {
				for kind, tr := range map[string]batchTree{"full": BuildFull(keys, m), "level": BuildLevel(keys, m)} {
					checkBatchesMatchScalar(t, fmt.Sprintf("%v %s m=%d n=%d guarded keys", kern, kind, m, n), tr, probes)
				}
			}
		}
	})
}

// TestLeafPassesAgainstGuardPage runs checkLeafPasses with the key array
// against the guard page: a whole last leaf's loads end at the array's
// last byte, and a window reaching past it must be handed back unread.
func TestLeafPassesAgainstGuardPage(t *testing.T) {
	g := workload.New(190)
	for _, n := range []int{16, 32, 4096, 70000, 70001, 70015} {
		keys := guardedU32(t, n)
		copy(keys, g.SortedWithDuplicates(n, 3))
		checkLeafPasses(t, keys)
	}
}
