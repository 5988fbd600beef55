package failfs

import (
	"errors"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// sysRenameat2 is renameat2's syscall number on the architectures whose
// syscall package predates it; 0 elsewhere, where Exchange is unsupported.
var sysRenameat2 = map[string]uintptr{"amd64": 316, "arm64": 276}[runtime.GOARCH]

const (
	atFDCWD        = -100   // AT_FDCWD: paths resolve from the working directory
	renameExchange = 1 << 1 // RENAME_EXCHANGE
)

// exchange swaps a and b with renameat2(RENAME_EXCHANGE).  A kernel or
// filesystem without the flag answers ENOSYS or EINVAL, reported as
// errors.ErrUnsupported.
func exchange(a, b string) error {
	if sysRenameat2 == 0 {
		return &os.LinkError{Op: "exchange", Old: a, New: b, Err: errors.ErrUnsupported}
	}
	pa, err := syscall.BytePtrFromString(a)
	if err != nil {
		return &os.LinkError{Op: "exchange", Old: a, New: b, Err: err}
	}
	pb, err := syscall.BytePtrFromString(b)
	if err != nil {
		return &os.LinkError{Op: "exchange", Old: a, New: b, Err: err}
	}
	cwd := atFDCWD
	_, _, errno := syscall.Syscall6(sysRenameat2,
		uintptr(cwd), uintptr(unsafe.Pointer(pa)),
		uintptr(cwd), uintptr(unsafe.Pointer(pb)),
		renameExchange, 0)
	switch errno {
	case 0:
		return nil
	case syscall.ENOSYS, syscall.EINVAL, syscall.EOPNOTSUPP:
		return &os.LinkError{Op: "exchange", Old: a, New: b, Err: errors.ErrUnsupported}
	}
	return &os.LinkError{Op: "exchange", Old: a, New: b, Err: errno}
}
