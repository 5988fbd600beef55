package cpu

var (
	// AVX2 reports AVX2 with the XMM and YMM state enabled by the OS.
	AVX2 = detectAVX2()
	// AVX512 reports AVX512F, on top of AVX2, with the opmask and ZMM
	// state enabled by the OS.
	AVX512 = AVX2 && detectAVX512()
)

// cpuidAsm and xgetbv0 are implemented in cpu_amd64.s.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// detectAVX2 reports CPUID leaf 7 EBX bit 5 and — because the OS must save
// the YMM state across context switches — CPUID leaf 1 OSXSAVE+AVX plus
// XGETBV confirming XMM and YMM state are enabled.
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
