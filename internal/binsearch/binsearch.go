// Package binsearch implements search over a sorted array of 4-byte keys:
// the paper's zero-space baseline (§3.2) and the within-node search routines
// shared by the tree structures.
//
// Array binary search needs no space beyond the sorted array itself but has
// poor reference locality: when the array is much larger than the cache, the
// number of cache misses approaches the number of key comparisons (log₂ n).
//
// Following §6.2 of the paper, the hot routines are specialised: the loop
// uses shifts rather than division, small ranges fall back to a sequential
// equality scan ("better performance when there are less than 5 keys in the
// range"), and fixed-size node searches (8/16/32/64 slots) are fully
// unrolled, hard-coded binary searches.
package binsearch

// tailScanMax is the range size below which sequential scan beats binary
// halving (§6.2: "less than 5 keys").
const tailScanMax = 5

// Search returns the index of the leftmost occurrence of key in the sorted
// slice a, or -1 if absent.
func Search(a []uint32, key uint32) int {
	i := LowerBound(a, key)
	if i < len(a) && a[i] == key {
		return i
	}
	return -1
}

// LowerBound returns the smallest index i with a[i] >= key, or len(a) when
// every element is smaller.  The slice must be sorted ascending.  The loop
// halves with a shift (§4: "even if this calculation uses a shift rather
// than a division by two") and finishes with a sequential tail scan.
func LowerBound(a []uint32, key uint32) int {
	lo, hi := 0, len(a)
	for hi-lo > tailScanMax {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && a[lo] < key {
		lo++
	}
	return lo
}

// UpperBound returns the smallest index i with a[i] > key, or len(a).
func UpperBound(a []uint32, key uint32) int {
	lo, hi := 0, len(a)
	for hi-lo > tailScanMax {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && a[lo] <= key {
		lo++
	}
	return lo
}

// EqualRange returns the half-open index range [first,last) of entries equal
// to key; first==last means key is absent.  This is how duplicates are
// enumerated per §3.6 ("find the leftmost element of all the duplicates and
// sequentially scan towards right").
func EqualRange(a []uint32, key uint32) (first, last int) {
	first = LowerBound(a, key)
	last = first
	for last < len(a) && a[last] == key {
		last++
	}
	return first, last
}

// SearchGeneric is the non-specialised loop the paper measured against its
// hard-coded version (reported 20–45% slower); kept for the ablation bench.
func SearchGeneric(a []uint32, key uint32) int {
	lo, hi := 0, len(a)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case a[mid] < key:
			lo = mid + 1
		case a[mid] > key:
			hi = mid - 1
		default:
			// Walk left to the first duplicate.
			for mid > 0 && a[mid-1] == key {
				mid--
			}
			return mid
		}
	}
	return -1
}

// --- Hard-coded node searches -------------------------------------------
//
// The tree structures store m keys per node and need the leftmost slot whose
// key is ≥ the probe ("we keep checking the keys in the left part if it's
// greater than or equal to the searching key", §4.1.2).  For the node sizes
// used in the paper these are fully unrolled so a node visit costs no loop
// overhead.  All take a full window of exactly m slots.

// NodeLowerBound returns the leftmost index in a[:m] with a[i] >= key, or m.
// It routes through the package-level kernel dispatch (see nodesearch.go):
// the AVX2 vector kernel where the CPU has it, the scalar branch-free
// ladder otherwise, or whichever tier CSSIDX_NODESEARCH pinned.  Every tier
// answers bit-identically to NodeLowerBoundScalar on every sorted window.
func NodeLowerBound(a []uint32, m int, key uint32) int {
	return nodeLowerBoundDispatch(a, m, key)
}

// NodeLowerBoundScalar is NodeLowerBound through the original scalar
// (branchy) unrolled routines.  It is the differential-test oracle for the
// branch-free family and the ablation baseline the bench compares against;
// results are bit-identical to NodeLowerBound on every sorted window.
func NodeLowerBoundScalar(a []uint32, m int, key uint32) int {
	switch m {
	case 3:
		return nlb3(a, key)
	case 4:
		return nlb4(a, key)
	case 7:
		return nlb7(a, key)
	case 8:
		return nlb8(a, key)
	case 15:
		return nlb15(a, key)
	case 16:
		return nlb16(a, key)
	case 31:
		return nlb31(a, key)
	case 32:
		return nlb32(a, key)
	case 63:
		return nlb63(a, key)
	case 64:
		return nlb64(a, key)
	default:
		return NodeLowerBoundGeneric(a, m, key)
	}
}

// NodeLowerBoundGeneric is the loop fallback for arbitrary m.
func NodeLowerBoundGeneric(a []uint32, m int, key uint32) int {
	lo, hi := 0, m
	for hi-lo > tailScanMax {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && a[lo] < key {
		lo++
	}
	return lo
}

// nlb3 .. nlb64: hard-coded leftmost-≥ search over exactly m slots, the
// paper's "hardcoding all the if-else tests" (§6.2).  Each is a flat,
// call-free halving sequence — every step shrinks the candidate window by
// a fixed power of two, so the whole search is straight-line code the
// compiler keeps in registers.  The 2ᵗ−1 sizes (3, 7, 15, 31, 63) are the
// perfect-binary-tree searches of level CSS-tree nodes (§4.2): exactly t
// comparisons on every path.  The 2ᵗ sizes need t+1 (Figure 4's point that
// a full node costs one extra comparison on some paths).

func nlb3(a []uint32, key uint32) int {
	base := 0
	if a[1] < key {
		base = 2
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb7(a []uint32, key uint32) int {
	base := 0
	if a[3] < key {
		base = 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb15(a []uint32, key uint32) int {
	base := 0
	if a[7] < key {
		base = 8
	}
	if a[base+3] < key {
		base += 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb31(a []uint32, key uint32) int {
	base := 0
	if a[15] < key {
		base = 16
	}
	if a[base+7] < key {
		base += 8
	}
	if a[base+3] < key {
		base += 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb63(a []uint32, key uint32) int {
	base := 0
	if a[31] < key {
		base = 32
	}
	if a[base+15] < key {
		base += 16
	}
	if a[base+7] < key {
		base += 8
	}
	if a[base+3] < key {
		base += 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb4(a []uint32, key uint32) int {
	base := 0
	if a[1] < key {
		base = 2
	}
	if a[base] < key {
		base++
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb8(a []uint32, key uint32) int {
	base := 0
	if a[3] < key {
		base = 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb16(a []uint32, key uint32) int {
	base := 0
	if a[7] < key {
		base = 8
	}
	if a[base+3] < key {
		base += 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb32(a []uint32, key uint32) int {
	base := 0
	if a[15] < key {
		base = 16
	}
	if a[base+7] < key {
		base += 8
	}
	if a[base+3] < key {
		base += 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	if a[base] < key {
		base++
	}
	return base
}

func nlb64(a []uint32, key uint32) int {
	base := 0
	if a[31] < key {
		base = 32
	}
	if a[base+15] < key {
		base += 16
	}
	if a[base+7] < key {
		base += 8
	}
	if a[base+3] < key {
		base += 4
	}
	if a[base+1] < key {
		base += 2
	}
	if a[base] < key {
		base++
	}
	if a[base] < key {
		base++
	}
	return base
}

// --- Branch-free node searches -------------------------------------------
//
// The nlb* searches above halve with `if` steps whose outcome depends on the
// probe key, so a random probe stream mispredicts roughly every other step —
// and a pipeline flush costs more than the comparison it guards.  The bflb*
// family computes the same halving sequence arithmetically: ltu turns each
// comparison into a borrow bit (no flags-to-branch round trip), and the bit
// feeds straight into the index arithmetic, so an out-of-order core runs the
// whole node search as one dependency chain of cheap ALU ops with zero
// mispredictions.  This is also what keeps the lockstep batch kernels
// streaming: with no data-dependent branches between the probes of a group,
// the independent node loads of the whole group stay in flight together.
//
// Results are bit-identical to the scalar routines on every sorted window
// (binsearch's differential tests prove it exhaustively).

// ltu returns 1 when x < key and 0 otherwise, branch-free: widening both
// sides to uint64 makes the subtraction borrow into bit 63 exactly when
// x < key.
func ltu(x, key uint32) int {
	return int((uint64(x) - uint64(key)) >> 63)
}

// nodeLowerBoundBF is the branch-free halving loop for arbitrary m: the
// classic branchless lower bound — the candidate window [base, base+n]
// shrinks by conditional base advances that compile to conditional moves.
func nodeLowerBoundBF(a []uint32, m int, key uint32) int {
	base, n := 0, m
	for n > 1 {
		half := n >> 1
		base += half & -ltu(a[base+half-1], key)
		n -= half
	}
	if n == 1 {
		base += ltu(a[base], key)
	}
	return base
}

// bflb3 .. bflb64: branch-free forms of the hard-coded searches.  The 2ᵗ−1
// sizes are pure shift-and-add ladders; the 2ᵗ sizes end with the same two
// dependent single-step advances as their scalar twins (Figure 4's extra
// comparison), each a borrow-bit add.

func bflb3(a []uint32, key uint32) int {
	_ = a[2]
	b := ltu(a[1], key) << 1
	b += ltu(a[b], key)
	return b
}

func bflb7(a []uint32, key uint32) int {
	_ = a[6]
	b := ltu(a[3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	return b
}

func bflb15(a []uint32, key uint32) int {
	_ = a[14]
	b := ltu(a[7], key) << 3
	b += ltu(a[b+3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	return b
}

func bflb31(a []uint32, key uint32) int {
	_ = a[30]
	b := ltu(a[15], key) << 4
	b += ltu(a[b+7], key) << 3
	b += ltu(a[b+3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	return b
}

func bflb63(a []uint32, key uint32) int {
	_ = a[62]
	b := ltu(a[31], key) << 5
	b += ltu(a[b+15], key) << 4
	b += ltu(a[b+7], key) << 3
	b += ltu(a[b+3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	return b
}

func bflb4(a []uint32, key uint32) int {
	_ = a[3]
	b := ltu(a[1], key) << 1
	b += ltu(a[b], key)
	b += ltu(a[b], key)
	return b
}

func bflb8(a []uint32, key uint32) int {
	_ = a[7]
	b := ltu(a[3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	b += ltu(a[b], key)
	return b
}

func bflb16(a []uint32, key uint32) int {
	_ = a[15]
	b := ltu(a[7], key) << 3
	b += ltu(a[b+3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	b += ltu(a[b], key)
	return b
}

func bflb32(a []uint32, key uint32) int {
	_ = a[31]
	b := ltu(a[15], key) << 4
	b += ltu(a[b+7], key) << 3
	b += ltu(a[b+3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	b += ltu(a[b], key)
	return b
}

func bflb64(a []uint32, key uint32) int {
	_ = a[63]
	b := ltu(a[31], key) << 5
	b += ltu(a[b+15], key) << 4
	b += ltu(a[b+7], key) << 3
	b += ltu(a[b+3], key) << 2
	b += ltu(a[b+1], key) << 1
	b += ltu(a[b], key)
	b += ltu(a[b], key)
	return b
}
