//go:build !amd64

package binsearch

// Non-amd64 builds have no vector kernel yet (arm64 NEON is the planned
// follow-on): the SIMD tier is unavailable and the dispatch defaults to
// the scalar branch-free ladder.

const (
	simdAvailable   = false
	avx512Available = false
)

// nodeLowerBoundSIMD is never reachable when simdAvailable is false; it
// exists so the dispatch switch compiles on every architecture.
func nodeLowerBoundSIMD(a []uint32, m int, key uint32) int {
	return nodeLowerBoundScalarTier(a, m, key)
}

// The asm kernels referenced by the (unreachable) SIMD dispatch arms.
func simdLB15(p *uint32, key uint32) int64 {
	panic("binsearch: simd kernel on non-amd64 build")
}

func simdLB16(p *uint32, key uint32) int64 {
	panic("binsearch: simd kernel on non-amd64 build")
}

// simdLBMulti16 is unreachable on this architecture (see NodeLowerBound16).
func simdLBMulti16(node *uint32, m int64, probes *uint32, out *int32) {
	panic("binsearch: simd kernel on non-amd64 build")
}

// The level-pass kernels are unreachable too: DescendLevel runs its
// portable loop over NodeLowerBound on this architecture.
func simdDescend15(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64) {
	panic("binsearch: simd kernel on non-amd64 build")
}

func simdDescend16(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64) {
	panic("binsearch: simd kernel on non-amd64 build")
}

func avx512Descend15(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64) {
	panic("binsearch: simd kernel on non-amd64 build")
}

func avx512Descend16(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64) {
	panic("binsearch: simd kernel on non-amd64 build")
}

// The leaf passes are unreachable too: LocateLeaves reports false and
// CanAnswerLeaves is false, so the caller maps and finishes every probe
// itself on this architecture.
const locateAvailable = false

func locateLeaves(keys *uint32, nkeys, m, mark, padded, bottomEnd int64, nodes, los, his *int32, n int64) {
	panic("binsearch: leaf-locate pass on non-amd64 build")
}

func answerLeaves16(op int64, keys *uint32, nkeys int64, probes *uint32, los, his, first, last, todo *int32, n int64) int64 {
	panic("binsearch: simd kernel on non-amd64 build")
}
