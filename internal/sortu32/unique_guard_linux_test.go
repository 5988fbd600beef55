package sortu32

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"cssidx/internal/cpu"
	"cssidx/internal/parallel"
)

// guarded returns a zeroed array of size bytes between two PROT_NONE pages,
// flush against the page after it (atEnd) or the page before it, so one
// byte read or written past either end of the array faults.
func guarded(t *testing.T, size int, atEnd bool) unsafe.Pointer {
	t.Helper()
	page := syscall.Getpagesize()
	span := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory: nothing to do about a failed unmap
	for _, g := range [][]byte{mem[:page], mem[page+span:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	if atEnd {
		return unsafe.Pointer(&mem[page+span-size])
	}
	return unsafe.Pointer(&mem[page])
}

// TestNetworkAgainstGuardPages is the sorting network's memory contract
// with the hardware checking it: the probes, the padded word buffer and the
// three outputs each sit flush against an unreadable page, after the array
// and then before it, at every block and register edge.  The pack reads
// only probes[:n], the sort only the n words rounded up to 64, and the
// dedupe only words[:n] and the first n entries of each output; the answer
// must be the LSD body's.
func TestNetworkAgainstGuardPages(t *testing.T) {
	if !cpu.AVX512 {
		t.Skip("no AVX-512: the sorting network never runs")
	}
	rng := rand.New(rand.NewSource(56))
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 383, 511, 512, 513, 1023, 1024, 1025, networkMax} {
		for _, atEnd := range []bool{true, false} {
			t.Run(fmt.Sprintf("n=%d/atEnd=%v", n, atEnd), func(t *testing.T) {
				size := (n + 63) &^ 63
				probes := unsafe.Slice((*uint32)(guarded(t, 4*n, atEnd)), n)
				for i := range probes {
					probes[i] = uint32(rng.Intn(n/2 + 1))
				}
				probes[n-1] = 1<<32 - 1
				words := unsafe.Slice((*uint64)(guarded(t, 8*size, atEnd)), size)
				keys := unsafe.Slice((*uint32)(guarded(t, 4*n, atEnd)), n)
				perm := unsafe.Slice((*uint32)(guarded(t, 4*n, atEnd)), n)
				expand := unsafe.Slice((*int32)(guarded(t, 4*n, atEnd)), n)

				sortNetwork(&probes[0], int64(n), &words[0])
				uq := dedupeWords(&words[0], int64(n), &keys[0], &perm[0], &expand[0])

				defer func(prev bool) { network512 = prev }(network512)
				network512 = false
				var u Unique
				wantKeys, wantPerm, wantExpand := u.Sort(probes, parallel.Options{Workers: 1})
				if !slices.Equal(keys[:uq], wantKeys) || !slices.Equal(perm, wantPerm) || !slices.Equal(expand, wantExpand) {
					t.Fatalf("guarded network answer differs from the LSD body's (%d distinct, want %d)", uq, len(wantKeys))
				}
			})
		}
	}
}
