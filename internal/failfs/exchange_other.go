//go:build !linux

package failfs

import (
	"errors"
	"os"
)

// exchange is unsupported off Linux; callers fall back to Rename.
func exchange(a, b string) error {
	return &os.LinkError{Op: "exchange", Old: a, New: b, Err: errors.ErrUnsupported}
}
