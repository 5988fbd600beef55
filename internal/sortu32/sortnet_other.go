//go:build !amd64

package sortu32

// Without amd64 there is no sorting network: cpu.AVX512 is false, and
// Unique.Sort runs its LSD body.

func sortNetwork(probes *uint32, n int64, words *uint64) {
	panic("sortu32: sorting network on non-amd64 build")
}

func dedupeWords(words *uint64, n int64, keys, perm *uint32, expand *int32) int64 {
	panic("sortu32: sorting network on non-amd64 build")
}
