// Package sortu32 provides the sorting substrate the paper's pipeline
// assumes: every index in this repository is built from a sorted key array,
// and the OLAP maintenance cycle (§2.3) re-sorts after batch updates.
//
// The central routine is an LSD radix sort on 4-byte keys — a
// cache-conscious sort in the spirit of the paper's cited work (LaMarca &
// Ladner; AlphaSort): it streams the array sequentially instead of the
// random probing of comparison sorts, making it several times faster than
// sort.Slice for the 4-byte keys of Table 1.  SortPairs co-sorts a RID
// array, which is exactly how mmdb builds record-identifier lists sorted by
// an attribute (§2.2).  Merge combines sorted runs for the batch-update
// path.
package sortu32

// radixBits is the digit width: 4 passes of 8 bits over uint32.
const radixBits = 8

// radixSize is the counting-bucket count per pass.
const radixSize = 1 << radixBits

// insertionThreshold is the size below which insertion sort wins.
const insertionThreshold = 64

// Sort sorts keys ascending in place.  The ping-pong buffer is allocated at
// the first pass that runs, so an already-ascending slice allocates nothing.
func Sort(keys []uint32) {
	if len(keys) < insertionThreshold {
		insertion(keys)
		return
	}
	src, dst := keys, []uint32(nil)
	for shift := uint(0); shift < 32; shift += radixBits {
		if sortedBy(src, shift) {
			continue
		}
		if dst == nil {
			dst = make([]uint32, len(keys))
		}
		countingPass(src, dst, shift)
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// sortedBy reports whether a pass at this shift can be skipped because the
// whole slice is already ordered on the remaining high bits — a common case
// for nearly-sorted batch merges.
func sortedBy(a []uint32, shift uint) bool {
	for i := 1; i < len(a); i++ {
		if a[i]>>shift < a[i-1]>>shift {
			return false
		}
	}
	return true
}

// countingPass distributes src into dst by the byte at shift (stable).
func countingPass(src, dst []uint32, shift uint) {
	var counts [radixSize]int
	for _, k := range src {
		counts[(k>>shift)&(radixSize-1)]++
	}
	pos := 0
	for d := 0; d < radixSize; d++ {
		c := counts[d]
		counts[d] = pos
		pos += c
	}
	for _, k := range src {
		d := (k >> shift) & (radixSize - 1)
		dst[counts[d]] = k
		counts[d]++
	}
}

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

// SortPairsScratch is SortPairs with caller-provided scratch space, for hot
// paths that sort many small batches (the sort-probes-first probe schedule):
// tmpK and tmpV are used as the radix ping-pong buffers when they have
// capacity ≥ len(keys), and allocated otherwise — at the first pass that
// runs, so already-ascending keys allocate nothing.
func SortPairsScratch(keys, vals, tmpK, tmpV []uint32) {
	if len(keys) != len(vals) {
		panic("sortu32: keys and vals length mismatch")
	}
	n := len(keys)
	if n < insertionThreshold {
		insertionPairs(keys, vals)
		return
	}
	srcK, srcV := keys, vals
	var dstK, dstV []uint32
	for shift := uint(0); shift < 32; shift += radixBits {
		if sortedBy(srcK, shift) {
			continue
		}
		if dstK == nil {
			if cap(tmpK) < n || cap(tmpV) < n {
				tmpK, tmpV = make([]uint32, n), make([]uint32, n)
			}
			dstK, dstV = tmpK[:n], tmpV[:n]
		}
		var counts [radixSize]int
		for _, k := range srcK {
			counts[(k>>shift)&(radixSize-1)]++
		}
		pos := 0
		for d := 0; d < radixSize; d++ {
			c := counts[d]
			counts[d] = pos
			pos += c
		}
		for i, k := range srcK {
			d := (k >> shift) & (radixSize - 1)
			dstK[counts[d]] = k
			dstV[counts[d]] = srcV[i]
			counts[d]++
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
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

// Merge merges two ascending slices into a new ascending slice (stable:
// ties take from a first) — the batch-update path: sorted base plus sorted
// batch.
func Merge(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// MergePairs is Merge over (key, payload) pairs: two lists each ascending by
// key merge into fresh slices, a's pairs first on equal keys — which keeps
// (key, payload) order whenever every payload of b exceeds every payload of a
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
