//go:build !amd64

package cpu

// Without amd64 there is no AVX2 or AVX-512 kernel to run.
const (
	AVX2   = false
	AVX512 = false
)
