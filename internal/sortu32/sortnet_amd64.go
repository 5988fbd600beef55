package sortu32

// The sorting network's kernels (sortnet_amd64.s) need AVX512F: Unique.Sort
// calls them only where cpu.AVX512 reports it.

// sortNetwork packs probes[:n] (n > 0) into words as (key<<32 | input
// index), pads them to a multiple of 64 words with all ones, and sorts the
// padded words ascending.  It reads only probes[:n] and reads and writes
// only words[:n rounded up to 64].
//
//go:noescape
func sortNetwork(probes *uint32, n int64, words *uint64)

// dedupeWords is Unique.Sort's last pass over the n sorted words: it
// writes the distinct keys ascending to keys, each word's index to perm
// and its distinct slot to expand, and returns the distinct count.  It
// reads only words[:n] and writes only the first n entries of each output.
//
//go:noescape
func dedupeWords(words *uint64, n int64, keys, perm *uint32, expand *int32) int64
