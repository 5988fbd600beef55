// AVX2 node-search kernels, plus the AVX-512 body of the level pass
// (LEVELPASS512).  A node is a short sorted window of uint32 keys; the
// leftmost slot ≥ the probe equals the COUNT of slots < the probe, so
// each kernel compares the whole window against the broadcast
// key (8 slots per compare), extracts the compare mask (VPMOVMSKB, 4 mask
// bits per slot) and popcounts it — a 16-slot node is answered by two
// compares, two mask extracts and one POPCNT.
//
// AVX2 has no unsigned compare, so ≥ is computed as max(slot, key) == slot
// (VPMAXUD + VPCMPEQD, both taking the slots straight from memory): the
// popcount then counts slots ≥ key and the kernel returns m − count.  This
// saves the broadcast-bias XORs a signed-compare formulation needs.
//
// The 2ᵗ−1 sizes (7/15/31/63 — level CSS-tree routing windows) are not a
// whole number of vectors; rather than masked loads, the last vector is
// loaded OVERLAPPED with the previous one (always inside the window) and
// the one double-counted lane is subtracted back off via its mask bit.
//
// Two hygiene rules keep the kernels fast on every core: only VEX- or
// EVEX-encoded instructions touch vector registers (a legacy-SSE write
// with dirty YMM uppers stalls for hundreds of cycles on state merges),
// and every kernel ends with VZEROUPPER so the Go code after the return
// pays no AVX/SSE transition penalty.

#include "textflag.h"

// KEYVEC loads p into AX and broadcasts the probe key into Y0 (X0 for the
// XMM kernels).
#define KEYVEC \
	MOVQ p+0(FP), AX; \
	MOVL key+8(FP), CX; \
	VMOVQ CX, X0; \
	VPBROADCASTD X0, Y0

// MASKGE8 leaves in reg the 32-bit mask of slots ≥ key among the 8 slots
// at off(AX): yv = max(slot, key); lane equals slot exactly when slot ≥ key.
#define MASKGE8(off, yv, reg) \
	VPMAXUD off(AX), Y0, yv; \
	VPCMPEQD off(AX), yv, yv; \
	VPMOVMSKB yv, reg

// func simdLB8(p *uint32, key uint32) int64
TEXT ·simdLB8(SB), NOSPLIT, $0-24
	KEYVEC
	MASKGE8(0, Y2, BX)
	POPCNTL BX, BX
	SHRL $2, BX
	MOVL $8, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdLB16(p *uint32, key uint32) int64
TEXT ·simdLB16(SB), NOSPLIT, $0-24
	KEYVEC
	MASKGE8(0, Y2, BX)
	MASKGE8(32, Y3, SI)
	SHLQ $32, SI
	ORQ SI, BX
	POPCNTQ BX, BX
	SHRQ $2, BX
	MOVL $16, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdLB32(p *uint32, key uint32) int64
TEXT ·simdLB32(SB), NOSPLIT, $0-24
	KEYVEC
	MASKGE8(0, Y2, BX)
	MASKGE8(32, Y3, SI)
	MASKGE8(64, Y4, DI)
	MASKGE8(96, Y5, R8)
	SHLQ $32, SI
	ORQ SI, BX
	POPCNTQ BX, BX
	SHLQ $32, R8
	ORQ R8, DI
	POPCNTQ DI, DI
	ADDQ DI, BX
	SHRQ $2, BX
	MOVL $32, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdLB64(p *uint32, key uint32) int64
TEXT ·simdLB64(SB), NOSPLIT, $0-24
	KEYVEC
	MASKGE8(0, Y2, BX)
	MASKGE8(32, Y3, SI)
	MASKGE8(64, Y4, DI)
	MASKGE8(96, Y5, R8)
	MASKGE8(128, Y2, R9)
	MASKGE8(160, Y3, R10)
	MASKGE8(192, Y4, R11)
	MASKGE8(224, Y5, R12)
	SHLQ $32, SI
	ORQ SI, BX
	POPCNTQ BX, BX
	SHLQ $32, R8
	ORQ R8, DI
	POPCNTQ DI, DI
	ADDQ DI, BX
	SHLQ $32, R10
	ORQ R10, R9
	POPCNTQ R9, R9
	ADDQ R9, BX
	SHLQ $32, R12
	ORQ R12, R11
	POPCNTQ R11, R11
	ADDQ R11, BX
	SHRQ $2, BX
	MOVL $64, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdLB7(p *uint32, key uint32) int64
// Lanes 0-3 at +0 and lanes 3-6 at +12 (overlap: lane 3, bit 12 of m0):
// count_ge = (popcnt(m0|m1<<16) >> 2) − overlap bit; return 7 − count_ge.
TEXT ·simdLB7(SB), NOSPLIT, $0-24
	KEYVEC
	VPMAXUD (AX), X0, X2
	VPCMPEQD (AX), X2, X2
	VPMOVMSKB X2, BX
	VPMAXUD 12(AX), X0, X3
	VPCMPEQD 12(AX), X3, X3
	VPMOVMSKB X3, SI
	MOVL BX, DX
	SHLL $16, SI
	ORL SI, BX
	POPCNTL BX, BX
	SHRL $2, BX
	SHRL $12, DX
	ANDL $1, DX
	SUBL DX, BX
	MOVL $7, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdLB15(p *uint32, key uint32) int64
// Lanes 0-7 at +0 and lanes 7-14 at +28 (overlap: lane 7, bit 28 of m0).
TEXT ·simdLB15(SB), NOSPLIT, $0-24
	KEYVEC
	MASKGE8(0, Y2, BX)
	MASKGE8(28, Y3, SI)
	MOVL BX, DX
	SHLQ $32, SI
	ORQ SI, BX
	POPCNTQ BX, BX
	SHRQ $2, BX
	SHRL $28, DX
	ANDL $1, DX
	SUBQ DX, BX
	MOVL $15, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdLB31(p *uint32, key uint32) int64
// Lanes 0-7/8-15/16-23 at +0/+32/+64 and lanes 23-30 at +92 (overlap:
// lane 23 = lane 7 of the third vector, bit 28 of m2).
TEXT ·simdLB31(SB), NOSPLIT, $0-24
	KEYVEC
	MASKGE8(0, Y2, BX)
	MASKGE8(32, Y3, SI)
	MASKGE8(64, Y4, DI)
	MASKGE8(92, Y5, R8)
	MOVL DI, DX
	SHLQ $32, SI
	ORQ SI, BX
	POPCNTQ BX, BX
	SHLQ $32, R8
	ORQ R8, DI
	POPCNTQ DI, DI
	ADDQ DI, BX
	SHRQ $2, BX
	SHRL $28, DX
	ANDL $1, DX
	SUBQ DX, BX
	MOVL $31, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdLB63(p *uint32, key uint32) int64
// Seven vectors cover lanes 0-55; lanes 55-62 load at +220 (overlap:
// lane 55 = lane 7 of the seventh vector, bit 28 of m6).
TEXT ·simdLB63(SB), NOSPLIT, $0-24
	KEYVEC
	MASKGE8(0, Y2, BX)
	MASKGE8(32, Y3, SI)
	MASKGE8(64, Y4, DI)
	MASKGE8(96, Y5, R8)
	MASKGE8(128, Y2, R9)
	MASKGE8(160, Y3, R10)
	MASKGE8(192, Y4, R11)
	MASKGE8(220, Y5, R12)
	MOVL R11, DX
	SHLQ $32, SI
	ORQ SI, BX
	POPCNTQ BX, BX
	SHLQ $32, R8
	ORQ R8, DI
	POPCNTQ DI, DI
	ADDQ DI, BX
	SHLQ $32, R10
	ORQ R10, R9
	POPCNTQ R9, R9
	ADDQ R9, BX
	SHLQ $32, R12
	ORQ R12, R11
	POPCNTQ R11, R11
	ADDQ R11, BX
	SHRQ $2, BX
	SHRL $28, DX
	ANDL $1, DX
	SUBQ DX, BX
	MOVL $63, DX
	SUBQ BX, DX
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func simdCountLT(p *uint32, n8 int64, key uint32) int64
// Counts slots < key over n8 slots (n8 must be a multiple of 8): the
// strip-mined kernel for leaf windows of arbitrary size.
TEXT ·simdCountLT(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), AX
	MOVQ n8+8(FP), CX
	MOVL key+16(FP), DX
	VMOVQ DX, X0
	VPBROADCASTD X0, Y0
	XORQ BX, BX
	MOVQ CX, R8
countloop:
	TESTQ CX, CX
	JZ countdone
	VPMAXUD (AX), Y0, Y2
	VPCMPEQD (AX), Y2, Y2
	VPMOVMSKB Y2, DX
	POPCNTL DX, DX
	ADDQ DX, BX
	ADDQ $32, AX
	SUBQ $8, CX
	JMP countloop
countdone:
	SHRQ $2, BX
	SUBQ BX, R8
	MOVQ R8, ret+24(FP)
	VZEROUPPER
	RET

// func simdLBMulti16(node *uint32, m int64, probes *uint32, out *int32)
// Sixteen probes against ONE node of m sorted slots: the probes are loaded
// once into two vectors, then every node slot is broadcast and compared
// against the whole group, accumulating each probe's count of smaller
// slots — 16 lower bounds in ~3 instructions per slot, all from registers.
// Here the unsigned ≥ trick runs per-lane the other way around: the mask
// accumulated is slot < probe, i.e. max(probe, slot+?) — with no per-lane
// memory operand available the classic sign-bias XOR (VPXOR with
// 0x80000000 lanes) plus signed VPCMPGTD is used instead; the bias setup
// is paid once per call, not per slot.
TEXT ·simdLBMulti16(SB), NOSPLIT, $0-32
	MOVQ node+0(FP), AX
	MOVQ m+8(FP), CX
	MOVQ probes+16(FP), BX
	MOVQ out+24(FP), DX
	MOVL $0x80000000, SI
	VMOVQ SI, X1
	VPBROADCASTD X1, Y1
	VPXOR (BX), Y1, Y2
	VPXOR 32(BX), Y1, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	TESTQ CX, CX
	JZ multidone
multiloop:
	VPBROADCASTD (AX), Y6
	VPXOR Y6, Y1, Y6
	VPCMPGTD Y6, Y2, Y7
	VPSUBD Y7, Y4, Y4
	VPCMPGTD Y6, Y3, Y7
	VPSUBD Y7, Y5, Y5
	ADDQ $4, AX
	DECQ CX
	JNZ multiloop
multidone:
	VMOVDQU Y4, (DX)
	VMOVDQU Y5, 32(DX)
	VZEROUPPER
	RET

// LEVELPASS is the fused per-level pass of the lockstep descent (see
// DescendLevel): for each of the n probes of a group it loads the probe's
// node number d, skips the probe if d is past lNode (compared unsigned, so
// a negative number is skipped too — no node outside [0, lNode] is ever
// read), counts the routing keys ≥ the probe exactly as simdLB15/simdLB16
// do, stores the child number d·FAN + FAN − count, and prefetches the
// child's line so the next pass finds it in flight.  A child that is a leaf
// has no line in the directory; its prefetch is pointed at the node just
// read instead, which costs nothing.
//
// OFF2 is where the second vector loads (28: lanes 7-14 of a 15-key node,
// overlapping lane 7 of the first; 32: lanes 8-15 of a 16-key node) and
// LOMASK drops the double-counted lane 7 from the first vector's mask
// (0x0FFFFFFF) or keeps all eight (-1).  The count is a popcount of compare
// masks, so it lies in [0, FAN−1] whatever the node holds: arbitrary
// directory contents move a probe to a wrong child, never outside the
// numbering.
//
// AX dir  BX probes  DX nodes  CX n  R8 lNode  R9 j  R10 d  R11 d·64
// SI/DI masks → count  R12 child, then the byte offset to prefetch
#define LEVELPASS(OFF2, LOMASK, FAN) \
	XORQ R9, R9; \
	JMP test; \
loop: \
	MOVL (DX)(R9*4), R10; \
	CMPQ R10, R8; \
	JHI next; \
	MOVQ R10, R11; \
	SHLQ $6, R11; \
	VPBROADCASTD (BX)(R9*4), Y0; \
	VPMAXUD (AX)(R11*1), Y0, Y2; \
	VPCMPEQD (AX)(R11*1), Y2, Y2; \
	VPMOVMSKB Y2, SI; \
	VPMAXUD OFF2(AX)(R11*1), Y0, Y3; \
	VPCMPEQD OFF2(AX)(R11*1), Y3, Y3; \
	VPMOVMSKB Y3, DI; \
	ANDL $LOMASK, SI; \
	SHLQ $32, DI; \
	ORQ DI, SI; \
	POPCNTQ SI, SI; \
	SHRQ $2, SI; \
	IMUL3Q $FAN, R10, R12; \
	ADDQ $FAN, R12; \
	SUBQ SI, R12; \
	MOVL R12, (DX)(R9*4); \
	CMPQ R12, R8; \
	CMOVQHI R10, R12; \
	SHLQ $6, R12; \
	PREFETCHT0 (AX)(R12*1); \
next: \
	INCQ R9; \
test: \
	CMPQ R9, CX; \
	JLT loop

// func simdDescend15(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)
TEXT ·simdDescend15(SB), NOSPLIT, $0-40
	MOVQ dir+0(FP), AX
	MOVQ lNode+8(FP), R8
	MOVQ probes+16(FP), BX
	MOVQ nodes+24(FP), DX
	MOVQ n+32(FP), CX
	LEVELPASS(28, 0x0FFFFFFF, 16)
	VZEROUPPER
	RET

// func simdDescend16(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)
TEXT ·simdDescend16(SB), NOSPLIT, $0-40
	MOVQ dir+0(FP), AX
	MOVQ lNode+8(FP), R8
	MOVQ probes+16(FP), BX
	MOVQ nodes+24(FP), DX
	MOVQ n+32(FP), CX
	LEVELPASS(32, -1, 17)
	VZEROUPPER
	RET

// LEVELPASS512 is LEVELPASS with the AVX-512 node search: the probe is
// broadcast into Z0 and ONE unsigned compare (VPCMPUD predicate 2, probe ≤
// slot) tests all sixteen slots of the 64-byte node into K1.  KMASK keeps
// the routing slots — 0x7FFF drops a level node's spare sixteenth slot,
// 0xFFFF keeps all of a full node's — and POPCNTL counts the slots ≥ the
// probe.  The node number check, the child arithmetic and the prefetch are
// LEVELPASS's; the load reads exactly the node's 64 bytes.
#define LEVELPASS512(KMASK, FAN) \
	XORQ R9, R9; \
	JMP test; \
loop: \
	MOVL (DX)(R9*4), R10; \
	CMPQ R10, R8; \
	JHI next; \
	MOVQ R10, R11; \
	SHLQ $6, R11; \
	VPBROADCASTD (BX)(R9*4), Z0; \
	VPCMPUD $2, (AX)(R11*1), Z0, K1; \
	KMOVW K1, SI; \
	ANDL $KMASK, SI; \
	POPCNTL SI, SI; \
	IMUL3Q $FAN, R10, R12; \
	ADDQ $FAN, R12; \
	SUBQ SI, R12; \
	MOVL R12, (DX)(R9*4); \
	CMPQ R12, R8; \
	CMOVQHI R10, R12; \
	SHLQ $6, R12; \
	PREFETCHT0 (AX)(R12*1); \
next: \
	INCQ R9; \
test: \
	CMPQ R9, CX; \
	JLT loop

// func avx512Descend15(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)
TEXT ·avx512Descend15(SB), NOSPLIT, $0-40
	MOVQ dir+0(FP), AX
	MOVQ lNode+8(FP), R8
	MOVQ probes+16(FP), BX
	MOVQ nodes+24(FP), DX
	MOVQ n+32(FP), CX
	LEVELPASS512(0x7FFF, 16)
	VZEROUPPER
	RET

// func avx512Descend16(dir *uint32, lNode int64, probes *uint32, nodes *int32, n int64)
TEXT ·avx512Descend16(SB), NOSPLIT, $0-40
	MOVQ dir+0(FP), AX
	MOVQ lNode+8(FP), R8
	MOVQ probes+16(FP), BX
	MOVQ nodes+24(FP), DX
	MOVQ n+32(FP), CX
	LEVELPASS512(0xFFFF, 17)
	VZEROUPPER
	RET

// func simdLeafLowerBounds(keys *uint32, nkeys int64, los, his *int32, probes *uint32, out *int32, n int64)
// The leaf pass of a lockstep group: for each j whose window [los[j],
// his[j]) is a whole 16-key leaf inside keys, out[j] = los[j] + the count of
// its keys < probes[j], counted exactly as simdLB16 does.  Any other j —
// a partial or dangling leaf, or a window not inside keys (lo compared
// unsigned, so a negative one fails too) — is skipped and its out[j] left
// as it was; the loads read exactly keys[lo:lo+16].
//
// AX keys  R8 nkeys−16  R13 los  R12 his  BX probes  DX out  CX n  R9 j
// R10 lo  R11 hi−lo, then &keys[lo]  SI/DI masks → count  DI answer
TEXT ·simdLeafLowerBounds(SB), NOSPLIT, $0-56
	MOVQ keys+0(FP), AX
	MOVQ nkeys+8(FP), R8
	SUBQ $16, R8
	MOVQ los+16(FP), R13
	MOVQ his+24(FP), R12
	MOVQ probes+32(FP), BX
	MOVQ out+40(FP), DX
	MOVQ n+48(FP), CX
	XORQ R9, R9
	JMP leaftest
leafloop:
	MOVLQSX (R13)(R9*4), R10
	CMPQ R10, R8
	JHI leafnext
	MOVLQSX (R12)(R9*4), R11
	SUBQ R10, R11
	CMPQ R11, $16
	JNE leafnext
	LEAQ (AX)(R10*4), R11
	VPBROADCASTD (BX)(R9*4), Y0
	VPMAXUD (R11), Y0, Y2
	VPCMPEQD (R11), Y2, Y2
	VPMOVMSKB Y2, SI
	VPMAXUD 32(R11), Y0, Y3
	VPCMPEQD 32(R11), Y3, Y3
	VPMOVMSKB Y3, DI
	SHLQ $32, DI
	ORQ DI, SI
	POPCNTQ SI, SI
	SHRQ $2, SI
	LEAQ 16(R10), DI
	SUBQ SI, DI
	MOVL DI, (DX)(R9*4)
leafnext:
	INCQ R9
leaftest:
	CMPQ R9, CX
	JLT leafloop
	VZEROUPPER
	RET

// func prefetchAt(base *uint32, idx *int32, n int64)
// Prefetches the line of base[idx[j]] for j < n.
TEXT ·prefetchAt(SB), NOSPLIT, $0-24
	MOVQ base+0(FP), AX
	MOVQ idx+8(FP), BX
	MOVQ n+16(FP), CX
	XORQ R9, R9
	JMP pftest
pfloop:
	MOVLQSX (BX)(R9*4), R10
	PREFETCHT0 (AX)(R10*4)
	INCQ R9
pftest:
	CMPQ R9, CX
	JLT pfloop
	RET
