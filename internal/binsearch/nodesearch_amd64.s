// AVX2 node-search kernels, plus the AVX-512 body of the level pass
// (LEVELPASS512) and the two leaf passes that finish a lockstep group.  A node is a short sorted window of uint32 keys; the
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

// func locateLeaves(keys *uint32, nkeys, m, mark, padded, bottomEnd int64, nodes, los, his *int32, n int64)
// The leaf-locate pass of a lockstep group (see LocateLeaves): for each j
// it maps leaf node d = nodes[j] to its window exactly as
// csstree.Geometry.LeafRange does for leaves of m keys, with diff = m·d −
// mark:
//
//	region I  (diff ≥ 0): lo = min(diff, bottomEnd), hi = min(diff+m, bottomEnd)
//	region II (diff < 0): lo = padded + diff,       hi = min(lo+m, nkeys)
//
// stores lo and hi (their low 32 bits, as Go's int32 conversion keeps),
// and prefetches the line of keys[lo].  Both regions are computed and the
// right one kept by conditional moves, so a group that straddles the mark
// costs no mispredicted branch.  bottomEnd ≥ 0, so the clamped region-I lo
// is negative exactly when diff is: its sign picks the region.  Nothing is
// loaded from keys; a prefetch never faults, whatever lo is.  Every
// instruction is baseline amd64, so the pass runs under every tier.
//
// AX keys  R8 nkeys  CX m  R9 padded−mark  R11 bottomEnd  BX nodes  SI los
// DI his  DX j  R12 m·d, then diff, then lo  R13 region II lo
// R10 region II hi  R14 hi
TEXT ·locateLeaves(SB), NOSPLIT, $0-80
	MOVQ keys+0(FP), AX
	MOVQ nkeys+8(FP), R8
	MOVQ m+16(FP), CX
	MOVQ padded+32(FP), R9
	SUBQ mark+24(FP), R9
	MOVQ bottomEnd+40(FP), R11
	MOVQ nodes+48(FP), BX
	MOVQ los+56(FP), SI
	MOVQ his+64(FP), DI
	XORQ DX, DX
	JMP locatetest
locateloop:
	MOVLQSX (BX)(DX*4), R12
	IMULQ CX, R12
	LEAQ (R12)(R9*1), R13
	LEAQ (R13)(CX*1), R10
	CMPQ R10, R8
	CMOVQGT R8, R10
	SUBQ mark+24(FP), R12
	LEAQ (R12)(CX*1), R14
	CMPQ R12, R11
	CMOVQGT R11, R12
	CMPQ R14, R11
	CMOVQGT R11, R14
	TESTQ R12, R12
	CMOVQLT R13, R12
	CMOVQLT R10, R14
	MOVL R12, (SI)(DX*4)
	MOVL R14, (DI)(DX*4)
	PREFETCHT0 (AX)(R12*4)
	INCQ DX
locatetest:
	CMPQ DX, n+72(FP)
	JLT locateloop
	RET

// func answerLeaves16(op int64, keys *uint32, nkeys int64, probes *uint32, los, his, first, last, todo *int32, n int64) int64
// The leaf-answer pass of a lockstep group (see AnswerLeaves).  For each j
// whose window [los[j], his[j]) is a whole 16-key leaf inside keys (lo
// compared unsigned against nkeys−16, so a negative one fails too, then
// hi − lo == 16) it counts the leaf's keys below the probe as simdLB16
// does — the probe's lower bound is lo + that count — and stores op's
// answer:
//
//	0 LowerBound  first = the lower bound; the leaf holds it whatever the
//	              probe, lo+16 included
//	1 Search      first = the lower bound if a slot equals the probe, −1
//	              otherwise
//	2 EqualRange  first = the lower bound, last = first + the slots equal
//	              to the probe
//
// Every other j is left as it was and appended to todo: a window that is
// not a whole leaf, a Search probe above the leaf's last key (its lower
// bound is the next leaf's first key, not on this line) and an EqualRange
// probe at or above it (its run may go on past the line).  The pass
// returns how many it appended.  The loads read exactly keys[lo:lo+16];
// nkeys must be at least 16.  The op branch goes the same way for every
// probe of a call, so it predicts perfectly.  A pack folds each pair of
// compare vectors into one mask of two bits per slot, so one popcount
// counts the sixteen.
//
// R14 op  AX keys  R8 nkeys−16  BX probes  R13 los  R12 his  DX first
// CX n  R9 j  R10 probes handed back  R11 lo  SI/DI scratch, DI the bound
TEXT ·answerLeaves16(SB), NOSPLIT, $0-88
	MOVQ op+0(FP), R14
	MOVQ keys+8(FP), AX
	MOVQ nkeys+16(FP), R8
	SUBQ $16, R8
	MOVQ probes+24(FP), BX
	MOVQ los+32(FP), R13
	MOVQ his+40(FP), R12
	MOVQ first+48(FP), DX
	MOVQ n+72(FP), CX
	XORQ R9, R9
	XORQ R10, R10
	JMP answertest
answerloop:
	MOVLQSX (R13)(R9*4), R11
	CMPQ R11, R8
	JHI handback
	MOVLQSX (R12)(R9*4), SI
	SUBQ R11, SI
	CMPQ SI, $16
	JNE handback
	VPBROADCASTD (BX)(R9*4), Y0
	VPMAXUD (AX)(R11*4), Y0, Y2
	VPCMPEQD (AX)(R11*4), Y2, Y2
	VPMAXUD 32(AX)(R11*4), Y0, Y3
	VPCMPEQD 32(AX)(R11*4), Y3, Y3
	VPACKSSDW Y3, Y2, Y2
	VPMOVMSKB Y2, SI
	POPCNTL SI, SI
	SHRL $1, SI
	LEAQ 16(R11), DI
	SUBQ SI, DI
	TESTQ R14, R14
	JEQ store
	MOVL (BX)(R9*4), SI
	CMPQ R14, $1
	JNE equalrange
	CMPL 60(AX)(R11*4), SI
	JCS handback
	VPCMPEQD (AX)(R11*4), Y0, Y4
	VPCMPEQD 32(AX)(R11*4), Y0, Y5
	VPOR Y5, Y4, Y4
	VPTEST Y4, Y4
	MOVQ $-1, SI
	CMOVQEQ SI, DI
	JMP store
equalrange:
	CMPL 60(AX)(R11*4), SI
	JLS handback
	VPCMPEQD (AX)(R11*4), Y0, Y4
	VPCMPEQD 32(AX)(R11*4), Y0, Y5
	VPACKSSDW Y5, Y4, Y4
	VPMOVMSKB Y4, SI
	POPCNTL SI, SI
	SHRL $1, SI
	ADDQ DI, SI
	MOVQ last+56(FP), R11
	MOVL SI, (R11)(R9*4)
store:
	MOVL DI, (DX)(R9*4)
	JMP answernext
handback:
	MOVQ todo+64(FP), SI
	MOVL R9, (SI)(R10*4)
	INCQ R10
answernext:
	INCQ R9
answertest:
	CMPQ R9, CX
	JLT answerloop
	MOVQ R10, ret+80(FP)
	VZEROUPPER
	RET
