//go:build !linux

package mem

// Huge is a no-op where the kernel offers no MADV_COLLAPSE: the slice stays
// on whatever pages the runtime gave it (see huge_linux.go).
func Huge(s []uint32) {}
