package sortu32

import "cssidx/internal/parallel"

// Unique sorts probe batches for the key-ordered probe schedule (shard's
// batches and cssidx.SortedBatch): a batch comes back as its distinct keys
// ascending plus the two maps that scatter their answers to input order.
// Its buffers are reused across calls, so a Unique is not safe for
// concurrent use.
type Unique struct {
	keys, perm   []uint32
	expand, hist []int32
	pair, tmp    []uint64 // (key<<32 | input index), the sequential sort's
	tmpK, tmpV   []uint32 // the partition's ping-pong buffers
}

// Sort stable-sorts the (key, input index) pairs of probes, leaving probes
// untouched, and returns the distinct keys ascending, perm — perm[j] is the
// input index of the j-th sorted pair — and expand — distinct[expand[j]] is
// that pair's key.  The slices alias u until the next call.  A batch sorts
// as packed uint64 pairs, one store per element per pass; batches of
// parallelSortMin keys or more instead sort through SortPairsParallel's
// partition over the workers opts grants.  The result is the same either
// way.
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
	} else if n > 0 {
		if cap(u.pair) < n {
			u.pair, u.tmp = make([]uint64, n), make([]uint64, n)
		}
		pair := u.pair[:n]
		var h digitHist
		h.count(probes)
		for i, k := range probes {
			pair[i] = uint64(k)<<32 | uint64(i)
		}
		pair, _ = lsd(pair, nil, u.tmp, nil, &h, 32)
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
