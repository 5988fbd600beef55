package binsearch

// AVX2 node-search kernels (see nodesearch_amd64.s), gated by the CPU
// feature probe in internal/cpu.

import "cssidx/internal/cpu"

var (
	// simdAvailable reports whether the AVX2 tier can run on this CPU.
	simdAvailable = cpu.AVX2
	// avx512Available reports whether the simd tier's level pass can use
	// its AVX-512 body.
	avx512Available = cpu.AVX512
)

// The single-node kernels answer one probe against a node of exactly the
// named slot count; simdCountLT counts slots < key over any multiple of 8;
// simdLBMulti16 answers 16 probes against one node of m slots.  All read
// exactly the window they are given (the 2ᵗ−1 sizes use overlapped loads
// that stay inside the window), so no padding is required.

//go:noescape
func simdLB7(p *uint32, key uint32) int64

//go:noescape
func simdLB8(p *uint32, key uint32) int64

//go:noescape
func simdLB15(p *uint32, key uint32) int64

//go:noescape
func simdLB16(p *uint32, key uint32) int64

//go:noescape
func simdLB31(p *uint32, key uint32) int64

//go:noescape
func simdLB32(p *uint32, key uint32) int64

//go:noescape
func simdLB63(p *uint32, key uint32) int64

//go:noescape
func simdLB64(p *uint32, key uint32) int64

//go:noescape
func simdCountLT(p *uint32, n8 int64, key uint32) int64

//go:noescape
func simdLBMulti16(node *uint32, m int64, probes *uint32, out *int32)

// The level-pass kernels behind DescendLevel: one loop over n probes of a
// lockstep group against a directory of 64-byte nodes (15 routing keys and
// fan 16, or 16 keys and fan 17).  They read node nodes[j] only when it is
// ≤ lNode, so dir must hold lNode+1 nodes.

//go:noescape
func simdDescend15(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)

//go:noescape
func simdDescend16(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)

// The same two passes with the AVX-512 body: one compare of the whole
// 64-byte node per probe.

//go:noescape
func avx512Descend15(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)

//go:noescape
func avx512Descend16(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)

// The leaf passes behind LocateLeaves and AnswerLeaves: one loop each over
// the n probes of a lockstep group.  The locate pass, on leaves of m keys,
// loads nothing from keys; the answer pass, on 16-key leaves (op is a
// LeafOp), reads a window only once it is checked to be a whole leaf
// inside keys[:nkeys].

// locateAvailable reports whether LocateLeaves has its pass: always on
// amd64, whose baseline has every instruction it uses.
const locateAvailable = true

//go:noescape
func locateLeaves(keys *uint32, nkeys, m, mark, padded, bottomEnd int64, nodes, los, his *int32, n int64)

//go:noescape
func answerLeaves16(op int64, keys *uint32, nkeys int64, probes *uint32, los, his, first, last, todo *int32, n int64) int64

// nodeLowerBoundSIMD is the SIMD tier body: the specialised vector kernels
// for the node sizes the trees use, the strip-mined count kernel for other
// windows of ≥ 8 slots (leaf remainders), and the scalar ladder below a
// vector's width.
func nodeLowerBoundSIMD(a []uint32, m int, key uint32) int {
	if m < 8 {
		if m == 7 {
			_ = a[6]
			return int(simdLB7(&a[0], key))
		}
		return nodeLowerBoundScalarTier(a, m, key)
	}
	_ = a[m-1]
	switch m {
	case 8:
		return int(simdLB8(&a[0], key))
	case 15:
		return int(simdLB15(&a[0], key))
	case 16:
		return int(simdLB16(&a[0], key))
	case 31:
		return int(simdLB31(&a[0], key))
	case 32:
		return int(simdLB32(&a[0], key))
	case 63:
		return int(simdLB63(&a[0], key))
	case 64:
		return int(simdLB64(&a[0], key))
	default:
		n8 := m &^ 7
		c := int(simdCountLT(&a[0], int64(n8), key))
		for i := n8; i < m; i++ {
			c += ltu(a[i], key)
		}
		return c
	}
}
