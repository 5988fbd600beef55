package sortu32

import (
	"cssidx/internal/cpu"
	"cssidx/internal/parallel"
)

// network512 routes Unique.Sort's batches of up to networkMax probes
// through the AVX-512 sorting network.  It is fixed at init by CPU
// detection, and only the package's tests flip it, to run both bodies.
var network512 = cpu.AVX512

// networkMax is the largest batch the sorting network takes: about where
// the LSD body's linear passes catch up with the network's n·log²n
// compare-exchanges.  BenchmarkSortBatchZipf on a 2-vCPU Emerald Rapids
// guest, medians of 5 runs in µs per batch, network against LSD: 0.17
// against 1.36 at 64 probes, 2.1 against 5.6 at 512, 26 against 48 at
// 4,096, 186 against 203 at 16,384 (the network faster in 5 of 5 runs),
// 321 against 299 at 24,576 (slower in 5 of 5) and 397 against 416 at
// 32,767 (faster in 3 of 5).
const networkMax = 16_384

// NetworkSorts reports whether Unique.Sort hands a batch of n probes to the
// sorting network: on an AVX-512 host, 1 to networkMax probes.
func NetworkSorts(n int) bool { return network512 && n > 0 && n <= networkMax }

// Unique sorts probe batches for the key-ordered probe schedule (shard's
// batches and cssidx.SortedBatch): a batch comes back as its distinct keys
// ascending plus the two maps that scatter their answers to input order.
// Its buffers are reused across calls, so a Unique is not safe for
// concurrent use.
type Unique struct {
	keys, perm   []uint32
	expand, hist []int32
	pair, tmp    []uint64 // packed key<<32 | input index, and the LSD body's ping-pong
	tmpK, tmpV   []uint32 // the partition's ping-pong buffers
}

// Sort stable-sorts the (key, input index) pairs of probes, leaving probes
// untouched, and returns the distinct keys ascending, perm — perm[j] is the
// input index of the j-th sorted pair — and expand — distinct[expand[j]] is
// that pair's key.  The slices alias u until the next call.  A batch sorts
// as packed uint64 words, key<<32 | input index: on an AVX-512 host a
// batch of up to networkMax probes goes through the sorting network, which
// packs, sorts and dedupes in assembly, and any other batch below
// parallelSortMin through the LSD core, one store per element per pass,
// and a dedupe in Go.  Batches of parallelSortMin keys or more sort
// through SortPairsParallel's partition over the workers opts grants.  The
// words are distinct (the indexes are), so every body yields the same
// result.
func (u *Unique) Sort(probes []uint32, opts parallel.Options) (distinct, perm []uint32, expand []int32) {
	n := len(probes)
	if cap(u.keys) < n {
		u.keys, u.perm, u.expand = make([]uint32, n), make([]uint32, n), make([]int32, n)
	}
	keys, perm, expand := u.keys[:n], u.perm[:n], u.expand[:n]
	if n >= parallelSortMin {
		if cap(u.tmpK) < n {
			u.tmpK, u.tmpV = make([]uint32, n), make([]uint32, n)
		}
		if need := HistLen(n, opts); cap(u.hist) < need {
			u.hist = make([]int32, need)
		}
		for i, p := range probes {
			keys[i], perm[i] = p, uint32(i)
		}
		SortPairsParallel(keys, perm, u.tmpK, u.tmpV, u.hist, opts)
	} else if NetworkSorts(n) {
		if size := (n + 63) &^ 63; cap(u.pair) < size {
			u.pair = make([]uint64, size)
		}
		sortNetwork(&probes[0], int64(n), &u.pair[0])
		return keys[:dedupeWords(&u.pair[0], int64(n), &keys[0], &perm[0], &expand[0])], perm, expand
	} else if n > 0 {
		if cap(u.pair) < n {
			u.pair = make([]uint64, n)
		}
		if cap(u.tmp) < n {
			u.tmp = make([]uint64, n)
		}
		pair := u.pair[:n]
		var h digitHist
		h.count(probes)
		for i, k := range probes {
			pair[i] = uint64(k)<<32 | uint64(i)
		}
		pair, _ = lsd(pair, nil, u.tmp, nil, &h, 32)
		// The slot counter compiles to a CMOV and the bounds checks are
		// always predicted: about 1 ns a probe.  Split into separate passes,
		// or with pointer stores and no checks, it read no faster.
		prev, uq := uint32(pair[0]>>32), int32(0)
		for j, x := range pair {
			k := uint32(x >> 32)
			if k != prev {
				uq++
			}
			prev, keys[uq], perm[j], expand[j] = k, k, uint32(x), uq
		}
		return keys[:uq+1], perm, expand
	}
	return keys[:Dedupe(keys, expand)], perm, expand
}

// Dedupe compacts the ascending keys to their distinct values in place,
// sets expand[j] to the slot keys[j]'s value lands in, and returns the
// distinct count: the end of Unique.Sort's partition path.
func Dedupe(keys []uint32, expand []int32) int {
	if len(keys) == 0 {
		return 0
	}
	prev, uq := keys[0], int32(0)
	for j, k := range keys {
		if k != prev { // compiles to a CMOV: on skewed batches a repeat is a coin flip
			uq++
		}
		prev, keys[uq], expand[j] = k, k, uq
	}
	return int(uq) + 1
}
