//go:build linux

package mem

import (
	"syscall"
	"unsafe"
)

const (
	// hugePage is the size of a transparent huge page on x86-64 and on
	// arm64 with 4 KiB base pages.
	hugePage = 2 << 20
	// madvCollapse is MADV_COLLAPSE (Linux 6.1+), which syscall does not
	// name.
	madvCollapse = 25
)

// Huge asks the kernel to back the whole 2 MiB pages inside s with
// transparent huge pages, so that a lookup's page walk is served by one STLB
// entry per 2 MiB instead of one per 4 KiB.  It is a hint: it changes no
// byte of s, does nothing when no whole 2 MiB page fits inside s, and
// ignores the kernel's refusal (EINVAL before Linux 6.1 or with THP off,
// EAGAIN/ENOMEM when memory is too fragmented to find a huge page).
func Huge(s []uint32) { _ = collapse(s) }

// collapse is Huge with the kernel's answer, for tests.
func collapse(s []uint32) error {
	b := hugeInterior(s)
	if len(b) == 0 {
		return nil
	}
	return syscall.Madvise(b, madvCollapse)
}

// hugeInterior returns the bytes of s that make up whole, 2 MiB-aligned huge
// pages: the span collapse may touch without reaching memory s does not own.
func hugeInterior(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
	off := int(-uintptr(unsafe.Pointer(&s[0])) & (hugePage - 1))
	if off >= len(b) {
		return nil
	}
	return b[off : off+(len(b)-off)&^(hugePage-1)]
}
