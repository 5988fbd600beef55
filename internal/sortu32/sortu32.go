// Package sortu32 provides the sorting substrate the paper's pipeline
// assumes: every index in this repository is built from a sorted key array,
// the OLAP maintenance cycle (§2.3) re-sorts after batch updates, and the
// key-ordered probe schedule sorts every skewed probe batch.
//
// Every sort but one runs on one LSD radix core (lsd) over 4-byte keys: a
// single read of the input builds all four 8-bit digit histograms, a digit
// on which every key agrees costs nothing, and each other digit costs one
// stable scatter — a cache-conscious sort in the spirit of the paper's
// cited work (LaMarca & Ladner; AlphaSort) that streams the array instead
// of probing it.  Sort orders keys; SortPairs co-sorts a payload, which is
// how mmdb builds RID lists sorted by an attribute (§2.2);
// SortPairsParallel partitions large batches across a worker pool and
// finishes each bucket with the same core; Unique turns a probe batch into
// its distinct keys and the maps that scatter their answers back.
// MergePairs combines two sorted runs of pairs.
//
// The exception is Unique's batch below the crossover on an AVX-512 host:
// there a bitonic sorting network (sortnet_amd64.s) sorts the packed
// (key, index) words in zmm registers, and the LSD core is the fallback.
package sortu32

// insertionThreshold is the size below which insertion sort wins.
const insertionThreshold = 64

// word is an element lsd sorts: a bare uint32 key, or a uint64 carrying
// its key in the high half above a payload (Unique's input index).
type word interface{ uint32 | uint64 }

// digitHist holds the four 8-bit digit histograms of a key array; lsd turns
// them into scatter cursors.
type digitHist [4][256]int32

// count adds keys to the four histograms in one read of the input.
func (h *digitHist) count(keys []uint32) {
	for _, k := range keys {
		h[0][byte(k)]++
		h[1][byte(k>>8)]++
		h[2][byte(k>>16)]++
		h[3][byte(k>>24)]++
	}
}

// cursors turns each histogram into its exclusive prefix sums, the
// digits' scatter cursors; the four sums interleave so none waits on another.
func (h *digitHist) cursors() {
	var p0, p1, p2, p3 int32
	for b := range 256 {
		c0, c1, c2, c3 := h[0][b], h[1][b], h[2][b], h[3][b]
		h[0][b], h[1][b], h[2][b], h[3][b] = p0, p1, p2, p3
		p0, p1, p2, p3 = p0+c0, p1+c1, p2+c2, p3+c3
	}
}

// lsd is the package's one counting-sort core.  It stable-sorts (k, v) by
// the key of each element — its 32 bits at base — one 8-bit digit at a
// time, skipping every digit whose histogram in h has one bucket holding
// all the keys.  It ping-pongs between (k, v) and (tk, tv) and returns the
// pair holding the result.  v and tv are nil when the elements carry no
// separate payload; k is not empty, and tk and tv have at least its
// capacity.
func lsd[T word](k []T, v []uint32, tk []T, tv []uint32, h *digitHist, base uint) ([]T, []uint32) {
	n := len(k)
	first := uint32(uint64(k[0]) >> (base & 63))
	var split [4]bool
	for d := range h {
		split[d] = h[d][byte(first>>(8*d))] != int32(n)
	}
	h.cursors()
	for d := range h {
		if !split[d] {
			continue
		}
		if shift := base + uint(8*d); v == nil {
			scatter(k, tk[:n], &h[d], shift)
		} else {
			scatterPairs(k, v, tk[:n], tv[:n], &h[d], shift)
		}
		k, tk = tk[:n], k
		v, tv = tv, v
	}
	return k, v
}

// scatter moves each element to its digit's cursor in o (one stable pass).
// It stays out of line so its loop keeps every operand in a register.
//
//go:noinline
func scatter[T word](src, dst []T, o *[256]int32, shift uint) {
	for _, x := range src {
		b := byte(uint64(x) >> (shift & 63))
		p := o[b]
		dst[p] = x
		o[b] = p + 1
	}
}

// scatterPairs is scatter carrying each element's payload along.
//
//go:noinline
func scatterPairs[T word](srcK []T, srcV []uint32, dstK []T, dstV []uint32, o *[256]int32, shift uint) {
	srcV = srcV[:len(srcK)]
	for i, x := range srcK {
		b := byte(uint64(x) >> (shift & 63))
		p := o[b]
		dstK[p], dstV[p] = x, srcV[i]
		o[b] = p + 1
	}
}

// Sort sorts keys ascending in place.  Ascending input returns after one
// read and allocates nothing; otherwise one ping-pong buffer is needed, on
// the stack up to stackSortKeys keys (a query's small result sorts without
// touching the heap) and allocated above.
func Sort(keys []uint32) {
	if len(keys) < insertionThreshold {
		insertion(keys)
		return
	}
	if IsSorted(keys) {
		return
	}
	var h digitHist
	h.count(keys)
	var buf [stackSortKeys]uint32
	tmp := buf[:]
	if len(keys) > len(buf) {
		tmp = make([]uint32, len(keys))
	}
	if r, _ := lsd(keys, nil, tmp, nil, &h, 0); &r[0] != &keys[0] {
		copy(keys, r)
	}
}

// stackSortKeys is the largest Sort whose ping-pong buffer (4 KiB) lives on
// the stack.
const stackSortKeys = 1024

// insertion sorts a small slice in place.
func insertion(a []uint32) {
	for i := 1; i < len(a); i++ {
		k := a[i]
		j := i - 1
		for j >= 0 && a[j] > k {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = k
	}
}

// SortPairs sorts keys ascending in place, applying the identical stable
// permutation to vals (e.g. RIDs).  len(vals) must equal len(keys).
func SortPairs(keys, vals []uint32) {
	SortPairsScratch(keys, vals, nil, nil)
}

// SortPairsScratch is SortPairs with caller-provided scratch space for hot
// paths that sort many batches: tmpK and tmpV are the ping-pong buffers when
// they have capacity ≥ len(keys), and are allocated otherwise — unless the
// keys are already ascending, which returns after one read.
func SortPairsScratch(keys, vals, tmpK, tmpV []uint32) {
	if len(keys) != len(vals) {
		panic("sortu32: keys and vals length mismatch")
	}
	n := len(keys)
	if n < insertionThreshold {
		insertionPairs(keys, vals)
		return
	}
	if IsSorted(keys) {
		return
	}
	if cap(tmpK) < n || cap(tmpV) < n {
		tmpK, tmpV = make([]uint32, n), make([]uint32, n)
	}
	var h digitHist
	h.count(keys)
	if rk, rv := lsd(keys, vals, tmpK, tmpV, &h, 0); &rk[0] != &keys[0] {
		copy(keys, rk)
		copy(vals, rv)
	}
}

// insertionPairs is insertion sort carrying vals along (stable).
func insertionPairs(keys, vals []uint32) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], vals[j+1] = keys[j], vals[j]
			j--
		}
		keys[j+1], vals[j+1] = k, v
	}
}

// MergePairs merges two lists of (key, payload) pairs, each ascending by key,
// into fresh slices, a's pairs first on equal keys — which keeps (key,
// payload) order whenever every payload of b exceeds every payload of a
// (appended RIDs; the delta layer's and the result cache's invariant).
func MergePairs(ak, ap, bk, bp []uint32) (keys, payload []uint32) {
	keys = make([]uint32, 0, len(ak)+len(bk))
	payload = make([]uint32, 0, len(ap)+len(bp))
	i, j := 0, 0
	for i < len(ak) && j < len(bk) {
		if ak[i] <= bk[j] {
			keys, payload = append(keys, ak[i]), append(payload, ap[i])
			i++
		} else {
			keys, payload = append(keys, bk[j]), append(payload, bp[j])
			j++
		}
	}
	keys = append(append(keys, ak[i:]...), bk[j:]...)
	payload = append(append(payload, ap[i:]...), bp[j:]...)
	return keys, payload
}

// IsSorted reports whether a is non-decreasing.
func IsSorted(a []uint32) bool {
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			return false
		}
	}
	return true
}
