package binsearch

// AVX2 node-search kernels (see nodesearch_amd64.s) and the hand-rolled CPU
// feature detection that gates them.  No external dependencies: AVX2 needs
// CPUID leaf 7 EBX bit 5, and — because the OS must save the YMM state
// across context switches — CPUID leaf 1 OSXSAVE+AVX plus XGETBV confirming
// XMM and YMM state are enabled.  This is the same probe sequence
// golang.org/x/sys/cpu performs; inlined here so the package stays
// dependency-free.

var (
	// simdAvailable reports whether the AVX2 tier can run on this CPU.
	simdAvailable = detectAVX2()
	// avx512Available reports whether the simd tier's level pass can use
	// its AVX-512 body.
	avx512Available = simdAvailable && detectAVX512()
)

// cpuidAsm and xgetbv0 are implemented in cpu_amd64.s.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// detectAVX512 reports AVX512F (CPUID leaf 7 EBX bit 16) with the opmask,
// ZMM_Hi256 and Hi16_ZMM state (XCR0 bits 5–7) enabled by the OS.  It is
// consulted only after detectAVX2, which has checked OSXSAVE.
func detectAVX512() bool {
	if xcr0, _ := xgetbv0(); xcr0&0xE0 != 0xE0 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<16) != 0
}

func detectAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled.
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

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
