package binsearch

// Node-search kernel dispatch.  Once the cache line holding a node is
// resident, the probe's cost is the within-node search itself — "Fast Query
// Processing by Distributing an Index over CPU Caches" makes the point that
// with a cache-optimal layout the probe loop, not the miss count, becomes
// the bottleneck.  Two kernel tiers answer the same leftmost-≥ question:
//
//	scalar  the bflb* branch-free ALU ladders (PR 3): one borrow-bit compare
//	        per halving step, a serial dependency chain of ~log₂ m steps.
//	        Pure Go, portable everywhere.
//	simd    AVX2 assembly (amd64): unsigned compares answer 8 slots per
//	        instruction against the broadcast key, VPMOVMSKB extracts the
//	        compare mask, POPCNT counts it — a 16-slot node is answered in
//	        ~3 vector instructions.  Where AVX-512 is enabled the batch
//	        level pass compares a whole 16-slot node at once instead.
//	        arm64 NEON is a follow-on; without a vector unit the dispatch
//	        is the scalar ladder.
//
// The tier is selected once at package init from CPU feature detection
// (internal/cpu's hand-rolled CPUID, no external deps) and can be
// overridden with CSSIDX_NODESEARCH=scalar|simd for testing and ablation.
// Every tier is bit-identical to NodeLowerBoundScalar on every sorted window — the
// differential battery in nodesearch_test.go proves it exhaustively.

import (
	"os"
	"unsafe"
)

// Kernel identifies a node-search dispatch tier.
type Kernel uint8

const (
	// KernelScalar is the branch-free ALU ladder family (bflb*), the PR 3
	// baseline the other tiers are measured against.
	KernelScalar Kernel = iota
	// KernelSIMD is the AVX2 assembly kernel (amd64 with AVX2 only).
	KernelSIMD
)

// String names the tier the way CSSIDX_NODESEARCH spells it.
func (k Kernel) String() string {
	switch k {
	case KernelScalar:
		return "scalar"
	case KernelSIMD:
		return "simd"
	default:
		return "Kernel(?)"
	}
}

// ParseKernel maps a CSSIDX_NODESEARCH value to its tier.
func ParseKernel(name string) (Kernel, bool) {
	switch name {
	case "scalar":
		return KernelScalar, true
	case "simd":
		return KernelSIMD, true
	}
	return 0, false
}

// EnvKernel is the environment variable that overrides the dispatched tier.
const EnvKernel = "CSSIDX_NODESEARCH"

// defaultKernel is the tier feature detection (plus the env override)
// picked at init; activeKernel is the live dispatch table every
// NodeLowerBound call routes through — written once at init (or by
// SetKernel in tests and ablations), so the switch on it predicts
// perfectly in hot loops.
var (
	defaultKernel = detectKernel()
	activeKernel  = defaultKernel
)

// levelPass512 picks the AVX-512 body of the simd tier's level pass (see
// DescendLevel).  It is not a tier: it is fixed at init by CPU detection,
// and only the package's tests flip it, to run both bodies.
var levelPass512 = avx512Available

// kernelEnvValue returns the raw CSSIDX_NODESEARCH value (for tests).
func kernelEnvValue() string { return os.Getenv(EnvKernel) }

// detectKernel picks the fastest available tier, honouring the env override.
// An override naming an unknown or unavailable tier (simd on a non-AVX2
// host) falls through to detection rather than failing, so one CI matrix
// works on any runner.
func detectKernel() Kernel {
	if name := os.Getenv(EnvKernel); name != "" {
		if k, ok := ParseKernel(name); ok && KernelAvailable(k) {
			return k
		}
	}
	if simdAvailable {
		return KernelSIMD
	}
	return KernelScalar
}

// KernelAvailable reports whether the tier can run on this CPU.
func KernelAvailable(k Kernel) bool {
	return k != KernelSIMD || simdAvailable
}

// ActiveKernel returns the tier NodeLowerBound currently dispatches to.
func ActiveKernel() Kernel { return activeKernel }

// SetKernel switches the dispatched tier and reports whether the tier is
// available (false leaves the dispatch unchanged).  It is NOT synchronised
// with concurrent searches — call it from tests, benchmarks and ablation
// setup only, never while an index is serving.
func SetKernel(k Kernel) bool {
	if !KernelAvailable(k) {
		return false
	}
	activeKernel = k
	return true
}

// nodeLowerBoundDispatch answers the leftmost-≥ search through the active
// tier.  Split from NodeLowerBound so the wrapper stays inlinable.  The two
// cache-line node sizes (16 full / 15 level routing keys) are every uint32
// tree's per-level hot case, so the SIMD arm jumps straight into their asm
// kernels without the extra frame of the general m switch.
func nodeLowerBoundDispatch(a []uint32, m int, key uint32) int {
	if activeKernel != KernelSIMD {
		return nodeLowerBoundScalarTier(a, m, key)
	}
	switch m {
	case 16:
		_ = a[15]
		return int(simdLB16(&a[0], key))
	case 15:
		_ = a[14]
		return int(simdLB15(&a[0], key))
	}
	return nodeLowerBoundSIMD(a, m, key)
}

// nodeLowerBoundScalarTier is the scalar tier body: the bflb* ladders.
func nodeLowerBoundScalarTier(a []uint32, m int, key uint32) int {
	switch m {
	case 3:
		return bflb3(a, key)
	case 4:
		return bflb4(a, key)
	case 7:
		return bflb7(a, key)
	case 8:
		return bflb8(a, key)
	case 15:
		return bflb15(a, key)
	case 16:
		return bflb16(a, key)
	case 31:
		return bflb31(a, key)
	case 32:
		return bflb32(a, key)
	case 63:
		return bflb63(a, key)
	case 64:
		return bflb64(a, key)
	default:
		return nodeLowerBoundBF(a, m, key)
	}
}

// --- multi-probe kernel ------------------------------------------------------

// GroupWidth is the number of probes NodeLowerBound16 answers at once.
const GroupWidth = 16

// NodeLowerBound16 answers GroupWidth probes against ONE node of m sorted
// slots: out[j] receives the leftmost index in a[:m] with a[i] >= probes[j],
// for every j.  probes and out must hold at least GroupWidth entries.
//
// The SIMD tier answers it from registers: the probes are loaded once into
// two vectors and each node slot is broadcast and compared against the
// whole group, so the node is read m times total instead of 16·m, with no
// per-probe call overhead.  Other tiers loop the single-probe kernel; the
// results are bit-identical in every tier.
func NodeLowerBound16(a []uint32, m int, probes []uint32, out []int32) {
	if activeKernel == KernelSIMD && m >= 1 {
		simdLBMulti16(&a[0], int64(m), &probes[0], &out[0])
		return
	}
	for j := 0; j < GroupWidth; j++ {
		out[j] = int32(NodeLowerBound(a, m, probes[j]))
	}
}

// --- level-pass kernel -------------------------------------------------------

// DescendLevel advances a lockstep group one level down a CSS directory
// whose node d occupies dir[d·m : d·m+m] with fan−1 routing keys and
// children d·fan+1 … d·fan+fan: for every j with nodes[j] ≤ lNode (still on
// an internal node) it searches that node for probes[j] and stores the
// child number back into nodes[j]; a probe already past lNode — on a leaf —
// is left alone.  One call replaces len(probes) NodeLowerBound calls.
//
// For the cache-line node (m = 16; 15 routing keys under fan 16, 16 under
// fan 17) the SIMD tier runs the whole pass as one assembly loop that also
// prefetches each child's line, so the group's next level is in flight
// before the next pass reads it.  The loop has two bodies, picked once at
// init: one AVX-512 compare of the whole node where the CPU and OS allow
// it, two AVX2 compares otherwise.  Every other tier, node size and
// architecture loops NodeLowerBound; the children are identical.
//
// Memory safety does not depend on the directory's contents: the sizes are
// checked once here, a node is read only after its number is checked
// against lNode (as unsigned, so a negative number is past it too), and a
// child is computed from a slot count in [0, fan).  Prefetches may name any
// address; they never fault.  The assembly bodies VZEROUPPER before every
// RET, so the Go code they return to pays no SSE/AVX transition.
func DescendLevel(dir []uint32, m, fan, lNode int, probes []uint32, nodes []int32) {
	if len(nodes) != len(probes) || fan < 2 || fan-1 > m || len(dir) < (lNode+1)*m {
		panic("binsearch: DescendLevel: group or directory size mismatch")
	}
	if lNode < 0 || len(probes) == 0 {
		return
	}
	if activeKernel == KernelSIMD && m == 16 && (fan == 16 || fan == 17) {
		d, l, p, nd, n := &dir[0], int64(lNode), &probes[0], &nodes[0], int64(len(probes))
		switch {
		case fan == 16 && levelPass512:
			avx512Descend15(d, l, p, nd, n)
		case fan == 16:
			simdDescend15(d, l, p, nd, n)
		case levelPass512:
			avx512Descend16(d, l, p, nd, n)
		default:
			simdDescend16(d, l, p, nd, n)
		}
		return
	}
	routing := fan - 1
	for j, p := range probes {
		d := int(nodes[j])
		if uint(d) > uint(lNode) {
			continue
		}
		base := d * m
		nodes[j] = int32(d*fan + 1 + NodeLowerBound(dir[base:base+routing], routing, p))
	}
}

// --- leaf passes -------------------------------------------------------------

// LeafOp names the answer AnswerLeaves stores for each probe.
type LeafOp uint8

const (
	// OpLowerBound stores the probe's lower bound into first.
	OpLowerBound LeafOp = iota
	// OpSearch stores the lower bound into first if the key is there, −1
	// otherwise.
	OpSearch
	// OpEqualRange stores the half-open run of the key into (first, last).
	OpEqualRange
)

// CanAnswerLeaves reports whether AnswerLeaves finishes a lockstep group on
// leaves of m keys: under the simd tier, for the cache-line leaf (m = 16).
// Every other tier, leaf size and architecture finishes each probe with its
// own search, and AnswerLeaves must not be called there.
func CanAnswerLeaves(m int) bool { return activeKernel == KernelSIMD && m == 16 }

// LocateLeaves is the first leaf pass of a lockstep group: for every j it
// stores the window [los[j], his[j]) that leaf node nodes[j] covers in a
// tree with leaves of m keys — the numbering of csstree.Geometry.LeafRange,
// whose Mark, Padded and BottomEnd it takes (0 ≤ bottomEnd), with N =
// len(keys) — and prefetches the window's first line, so whatever searches
// the leaves next finds the whole group's lines in flight.  It reads
// nothing from keys; a node number that names no leaf yields a window
// AnswerLeaves declines.  The pass is not tier-dispatched: it uses no
// vector instruction.  Where the architecture has no pass (anything but
// amd64) it stores nothing and reports false, and the caller maps the
// windows itself.
func LocateLeaves(keys []uint32, m, mark, padded, bottomEnd int, nodes, los, his []int32) bool {
	n := len(nodes)
	if len(los) != n || len(his) != n || m < 1 || bottomEnd < 0 {
		panic("binsearch: LocateLeaves: group size mismatch or bad layout")
	}
	if !locateAvailable {
		return false
	}
	if n > 0 {
		locateLeaves(unsafe.SliceData(keys), int64(len(keys)), int64(m), int64(mark), int64(padded), int64(bottomEnd), &nodes[0], &los[0], &his[0], int64(n))
	}
	return true
}

// AnswerLeaves is the second leaf pass: for every j whose window [los[j],
// his[j]) is a whole 16-key leaf inside keys it counts the leaf's keys
// below probes[j] and stores op's answer into first[j] (and last[j]) from
// that one line.  Every other j — a partial, empty or out-of-range window,
// or a probe whose answer reaches past the leaf (Search above the leaf's
// last key, EqualRange at or above it) — is left as it was and its index
// goes to todo; AnswerLeaves returns how many did, and the caller finishes
// those.  first, todo and los/his are as long as probes, and last too for
// OpEqualRange (it is unused otherwise).
//
// Memory safety does not depend on the windows: a window is checked before
// any load, and the loads read exactly keys[lo:lo+16].  The pass does not
// dispatch on the tier; CanAnswerLeaves is the caller's gate.
func AnswerLeaves(op LeafOp, keys, probes []uint32, los, his, first, last, todo []int32) int {
	n := len(probes)
	if len(los) != n || len(his) != n || len(first) != n || len(todo) != n ||
		(op == OpEqualRange && len(last) != n) || op > OpEqualRange || !simdAvailable {
		panic("binsearch: AnswerLeaves: group size mismatch or no kernel")
	}
	if n == 0 {
		return 0
	}
	if len(keys) < 16 { // no whole leaf: every probe is the caller's
		for j := range todo {
			todo[j] = int32(j)
		}
		return n
	}
	return int(answerLeaves16(int64(op), &keys[0], int64(len(keys)), &probes[0], &los[0], &his[0], &first[0], unsafe.SliceData(last), &todo[0], int64(n)))
}
