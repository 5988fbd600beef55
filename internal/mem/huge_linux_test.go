//go:build linux

package mem

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// TestHugeCollapsesInterior checks the hint end to end: after Huge on a
// 16 MiB slice, the smaps entry holding it reports at least as much
// AnonHugePages as the slice has whole aligned 2 MiB pages, and not a byte
// of the slice changed.
func TestHugeCollapsesInterior(t *testing.T) {
	if mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable (mode %q, %v)", strings.TrimSpace(string(mode)), err)
	}
	s := make([]uint32, 4<<20)
	for i := range s {
		s[i] = uint32(i) * 2654435761
	}
	if err := collapse(s); err != nil {
		var errno syscall.Errno
		if errors.As(err, &errno) && (errno == syscall.EINVAL || errno == syscall.EAGAIN || errno == syscall.ENOMEM) {
			t.Skipf("kernel refused MADV_COLLAPSE: %v (before Linux 6.1, or memory too fragmented)", err)
		}
		t.Fatalf("collapse: %v", err)
	}
	Huge(s) // the public hint on the same range: already huge, so a no-op
	want := len(hugeInterior(s)) >> 10
	if want < 6<<10 {
		t.Fatalf("a 16 MiB slice holds only %d KiB of whole huge pages", want)
	}
	got, err := anonHugeKiB(uintptr(unsafe.Pointer(&s[0])))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("AnonHugePages %d kB over %d kB of whole huge pages", got, want)
	if got < want {
		t.Errorf("AnonHugePages = %d kB, want ≥ %d kB", got, want)
	}
	for i, v := range s {
		if v != uint32(i)*2654435761 {
			t.Fatalf("s[%d] = %d changed under the collapse", i, v)
		}
	}
}

// anonHugeKiB reads the AnonHugePages of the /proc/self/smaps entry whose
// range holds addr.
func anonHugeKiB(addr uintptr) (int, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			l, err1 := strconv.ParseUint(lo, 16, 64)
			h, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				in = uint64(addr) >= l && uint64(addr) < h
				continue
			}
		}
		if in && fields[0] == "AnonHugePages:" && len(fields) >= 2 {
			return strconv.Atoi(fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no smaps entry holds %#x", addr)
}

// TestHugeNoOps pins the slices Huge must leave alone: nil, empty, shorter
// than a huge page, and long enough but straddling a boundary so that no
// whole aligned page lies inside.  None may panic or change a byte.
func TestHugeNoOps(t *testing.T) {
	big := make([]uint32, 3*hugePage/4) // 3 huge pages of bytes: one aligned boundary at least
	for i := range big {
		big[i] = uint32(i)
	}
	// The first 2 MiB boundary inside big, in words.
	boundary := int(-uintptr(unsafe.Pointer(&big[0]))&(hugePage-1)) / 4
	straddle := big[boundary+1 : boundary+1+hugePage/4] // 2 MiB of bytes, never aligned
	for name, s := range map[string][]uint32{
		"nil":       nil,
		"empty":     {},
		"short":     make([]uint32, 1000),
		"unaligned": big[1:1001],
		"straddle":  straddle,
	} {
		if b := hugeInterior(s); len(b) != 0 {
			t.Errorf("%s: interior of %d bytes, want none", name, len(b))
		}
		Huge(s)
	}
	for i, v := range big {
		if v != uint32(i) {
			t.Fatalf("big[%d] = %d changed", i, v)
		}
	}
	// The interior of a long slice is aligned, whole pages and inside it.
	b := hugeInterior(big)
	start := uintptr(unsafe.Pointer(&big[0]))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	if len(b) == 0 || len(b)%hugePage != 0 || lo%hugePage != 0 || lo < start || lo+uintptr(len(b)) > start+uintptr(4*len(big)) {
		t.Errorf("interior [%#x, +%d) of slice [%#x, +%d) is not whole aligned pages inside it", lo, len(b), start, 4*len(big))
	}
}
