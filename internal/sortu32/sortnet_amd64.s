// The probe-batch sorting network (see sortNetwork in sortnet_amd64.go): a
// bitonic sort of the batch's packed words, padded to m words, m a
// positive multiple of 64, in the network's "flip" form, where every stage
// sorts ascending.  Merging two sorted runs of k/2 words first compares
// word i of the left run with its mirror k−1−i in the right run, then runs
// the half-cleaners at distances k/4, …, 1.  Because every compare-exchange
// moves the maximum up, a network padded to a power of two with +∞ never
// moves its padding: a compare-exchange whose upper word lies past m is a
// no-op and is skipped.  So the batch only needs padding to the 64-word
// block, not to a power of two.
//
// A 64-word block lives in eight zmm registers, word 8r+i in lane i of
// register r.  Distances 32, 16 and 8 pair whole registers; distances 4, 2
// and 1 pair lanes inside one register.  A compare-exchange in registers is
// an unsigned compare into K7 and blends: on this target the 64-bit
// VPMINUQ/VPMAXUQ issue on the one port that also takes the permutes and
// compares, while blends issue on two.  The passes are:
//
//	blocks  pack eight probes a register and sort every 64-word block in
//	        registers (PACK, SORT64);
//	k=128   merge block pairs in sixteen registers (flip + FINISH64 twice);
//	k≥256   the flip over the buffer, the half-cleaners at distances ≥ 128
//	        words over the buffer, and distance 64 fused with the in-register
//	        finish of each block pair.
//
// Every load and store of words is a whole 64-byte vector inside
// [words, words+8m); the probe loads are masked to probes[:n].
//
// Registers: Z0–Z15 data, Z29 and Z30 scratch, Z31 the lane-reversing
// index.  K1/K2 select the lower/upper lane of each distance-1 pair, K3/K4
// of each distance-2 pair (and of the 4-lane flip), K5/K6 of each
// distance-4 pair (and of the 8-lane flip); K7 is scratch.

#include "textflag.h"

DATA revLanes<>+0(SB)/8, $7
DATA revLanes<>+8(SB)/8, $6
DATA revLanes<>+16(SB)/8, $5
DATA revLanes<>+24(SB)/8, $4
DATA revLanes<>+32(SB)/8, $3
DATA revLanes<>+40(SB)/8, $2
DATA revLanes<>+48(SB)/8, $1
DATA revLanes<>+56(SB)/8, $0
GLOBL revLanes<>(SB), RODATA|NOPTR, $64

DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

DATA ranks<>+0(SB)/4, $1
DATA ranks<>+4(SB)/4, $2
DATA ranks<>+8(SB)/4, $3
DATA ranks<>+12(SB)/4, $4
DATA ranks<>+16(SB)/4, $5
DATA ranks<>+20(SB)/4, $6
DATA ranks<>+24(SB)/4, $7
DATA ranks<>+28(SB)/4, $8
GLOBL ranks<>(SB), RODATA|NOPTR, $32

// In-register stages on one register x: the partner of each lane in Z30,
// then K7 = x < partner flipped in the upper lanes of the pairs, which
// selects the lanes where x already holds the right word (the minimum of
// a lower lane, the maximum of an upper one); the blend takes the partner
// elsewhere.
#define CX1(x) VPSHUFD $0x4E, x, Z30; VPCMPUQ $1, Z30, x, K7; KXORW K7, K2, K7; VPBLENDMQ x, Z30, K7, x
#define CX2(x) VPERMQ $0x4E, x, Z30; VPCMPUQ $1, Z30, x, K7; KXORW K7, K4, K7; VPBLENDMQ x, Z30, K7, x
#define CX4(x) VSHUFI64X2 $0x4E, x, x, Z30; VPCMPUQ $1, Z30, x, K7; KXORW K7, K6, K7; VPBLENDMQ x, Z30, K7, x
#define FLIP4(x) VPERMQ $0x1B, x, Z30; VPCMPUQ $1, Z30, x, K7; KXORW K7, K4, K7; VPBLENDMQ x, Z30, K7, x
#define FLIP8(x) VPERMQ x, Z31, Z30; VPCMPUQ $1, Z30, x, K7; KXORW K7, K6, K7; VPBLENDMQ x, Z30, K7, x

// Register-pair stages: COEX leaves min(a, b) in a and max(a, b) in b;
// FLIPX compares a's lane i with b's lane 7−i.
#define COEX(a, b) VPCMPUQ $1, b, a, K7; VPBLENDMQ a, b, K7, Z30; VPBLENDMQ b, a, K7, b; VMOVDQA64 Z30, a
#define FLIPX(a, b) VPERMQ b, Z31, Z30; VPCMPUQ $1, Z30, a, K7; VPBLENDMQ Z30, a, K7, Z29; VPBLENDMQ a, Z30, K7, a; VPERMQ Z29, Z31, b

#define ALL8(OP, a0, a1, a2, a3, a4, a5, a6, a7) OP(a0); OP(a1); OP(a2); OP(a3); OP(a4); OP(a5); OP(a6); OP(a7)

// TAIL421: the half-cleaners at distances 4, 2 and 1 on every register.
#define TAIL421(a0, a1, a2, a3, a4, a5, a6, a7) \
	ALL8(CX4, a0, a1, a2, a3, a4, a5, a6, a7); \
	ALL8(CX2, a0, a1, a2, a3, a4, a5, a6, a7); \
	ALL8(CX1, a0, a1, a2, a3, a4, a5, a6, a7)

// FINISH64 sorts a block whose two halves are the ends of a bitonic merge:
// the half-cleaners at distances 32, 16, 8, then TAIL421.
#define FINISH64(a0, a1, a2, a3, a4, a5, a6, a7) \
	COEX(a0, a4); COEX(a1, a5); COEX(a2, a6); COEX(a3, a7); \
	COEX(a0, a2); COEX(a1, a3); COEX(a4, a6); COEX(a5, a7); \
	COEX(a0, a1); COEX(a2, a3); COEX(a4, a5); COEX(a6, a7); \
	TAIL421(a0, a1, a2, a3, a4, a5, a6, a7)

// SORT64 sorts a block: merges of 2, 4 and 8 words inside each register,
// then of 16, 32 and 64 words across them.
#define SORT64(a0, a1, a2, a3, a4, a5, a6, a7) \
	ALL8(CX1, a0, a1, a2, a3, a4, a5, a6, a7); \
	ALL8(FLIP4, a0, a1, a2, a3, a4, a5, a6, a7); \
	ALL8(CX1, a0, a1, a2, a3, a4, a5, a6, a7); \
	ALL8(FLIP8, a0, a1, a2, a3, a4, a5, a6, a7); \
	ALL8(CX2, a0, a1, a2, a3, a4, a5, a6, a7); \
	ALL8(CX1, a0, a1, a2, a3, a4, a5, a6, a7); \
	FLIPX(a0, a1); FLIPX(a2, a3); FLIPX(a4, a5); FLIPX(a6, a7); \
	TAIL421(a0, a1, a2, a3, a4, a5, a6, a7); \
	FLIPX(a0, a3); FLIPX(a1, a2); FLIPX(a4, a7); FLIPX(a5, a6); \
	COEX(a0, a1); COEX(a2, a3); COEX(a4, a5); COEX(a6, a7); \
	TAIL421(a0, a1, a2, a3, a4, a5, a6, a7); \
	FLIPX(a0, a7); FLIPX(a1, a6); FLIPX(a2, a5); FLIPX(a3, a4); \
	FINISH64(a0, a1, a2, a3, a4, a5, a6, a7)

#define LOAD8(base, a0, a1, a2, a3, a4, a5, a6, a7) \
	VMOVDQU64 (base), a0; VMOVDQU64 64(base), a1; VMOVDQU64 128(base), a2; VMOVDQU64 192(base), a3; \
	VMOVDQU64 256(base), a4; VMOVDQU64 320(base), a5; VMOVDQU64 384(base), a6; VMOVDQU64 448(base), a7

#define STORE8(base, a0, a1, a2, a3, a4, a5, a6, a7) \
	VMOVDQU64 a0, (base); VMOVDQU64 a1, 64(base); VMOVDQU64 a2, 128(base); VMOVDQU64 a3, 192(base); \
	VMOVDQU64 a4, 256(base); VMOVDQU64 a5, 320(base); VMOVDQU64 a6, 384(base); VMOVDQU64 a7, 448(base)

// PACK loads the next eight probes as words into x: key<<32 | index, all
// ones past n.  The load is masked to the probes below n, so it reads
// nothing past them.
#define PACK(x) \
	VPCMPUQ $1, Z26, Z28, K7; \
	VPMOVZXDQ.Z (R13), K7, x; \
	VPSLLQ $32, x, x; \
	VPORQ Z28, x, x; \
	VPBLENDMQ x, Z25, K7, x; \
	VPADDQ Z27, Z28, Z28; \
	ADDQ $32, R13

// func sortNetwork(probes *uint32, n int64, words *uint64)
//
// DI words  CX its size in bytes, 8n rounded up to 512  R13 the next probe
// R8 8k, the merge size  AX 4k, its half  R9 the half-cleaner distance
// BX a group's base  SI, DX, R10 offsets  R11, R12 the current block pair's
// addresses  Z28 the next probe's index in each lane  Z27 eight  Z26 n
// Z25 all ones
TEXT ·sortNetwork(SB), NOSPLIT, $0-24
	MOVQ probes+0(FP), R13
	MOVQ n+8(FP), CX
	MOVQ words+16(FP), DI
	VPBROADCASTQ CX, Z26
	ADDQ $63, CX
	ANDQ $~63, CX
	SHLQ $3, CX
	MOVL $0x55, AX
	KMOVW AX, K1
	MOVL $0xAA, AX
	KMOVW AX, K2
	MOVL $0x33, AX
	KMOVW AX, K3
	MOVL $0xCC, AX
	KMOVW AX, K4
	MOVL $0x0F, AX
	KMOVW AX, K5
	MOVL $0xF0, AX
	KMOVW AX, K6
	VMOVDQU64 revLanes<>(SB), Z31
	VMOVDQU64 lanes<>(SB), Z28
	MOVL $8, AX
	VPBROADCASTQ AX, Z27
	VPTERNLOGQ $0xFF, Z25, Z25, Z25

	// Pack and sort every 64-word block.
	MOVQ DI, R11
	LEAQ (DI)(CX*1), R12
blocks:
	PACK(Z0); PACK(Z1); PACK(Z2); PACK(Z3); PACK(Z4); PACK(Z5); PACK(Z6); PACK(Z7)
	SORT64(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	STORE8(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ADDQ $512, R11
	CMPQ R11, R12
	JLT  blocks

	// k = 128: merge each block pair; a last block without a partner is
	// already sorted.
	XORQ SI, SI
pairs:
	LEAQ 512(SI), DX
	CMPQ DX, CX
	JGE  merges
	LEAQ (DI)(SI*1), R11
	LEAQ 512(R11), R12
	LOAD8(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	LOAD8(R12, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	FLIPX(Z0, Z15); FLIPX(Z1, Z14); FLIPX(Z2, Z13); FLIPX(Z3, Z12)
	FLIPX(Z4, Z11); FLIPX(Z5, Z10); FLIPX(Z6, Z9); FLIPX(Z7, Z8)
	FINISH64(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	FINISH64(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	STORE8(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	STORE8(R12, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $1024, SI
	CMPQ SI, CX
	JLT  pairs

merges:
	MOVQ $2048, R8

merge:
	// Runs of k/2 words are sorted; done once one run spans the buffer.
	MOVQ R8, AX
	SHRQ $1, AX
	CMPQ AX, CX
	JGE  done

	// The flip: in each group of k words, the vector at offset off of the
	// left half against the reversed vector at k−8−off, for every off whose
	// right vector lies inside the buffer (off ≥ base + 8k − 8m).
	XORQ BX, BX
flipgroup:
	LEAQ (BX)(R8*1), SI
	SUBQ CX, SI
	XORQ DX, DX
	CMPQ SI, DX
	CMOVQLT DX, SI
	CMPQ SI, AX
	JGE  flipnext
	LEAQ (DI)(BX*1), R11
	LEAQ -64(R11)(R8*1), R12
flipvec:
	MOVQ R12, R10
	SUBQ SI, R10
	VMOVDQU64 (R11)(SI*1), Z0
	VPERMQ (R10), Z31, Z1
	VPMAXUQ Z1, Z0, Z2
	VPMINUQ Z1, Z0, Z0
	VPERMQ Z2, Z31, Z2
	VMOVDQU64 Z0, (R11)(SI*1)
	VMOVDQU64 Z2, (R10)
	ADDQ $64, SI
	CMPQ SI, AX
	JLT  flipvec
flipnext:
	ADDQ R8, BX
	CMPQ BX, CX
	JLT  flipgroup

	// The half-cleaners at distances k/4 down to 128 words, each vector of
	// a group's left half against its partner d words on, while the
	// partner lies inside the buffer.
	MOVQ R8, R9
	SHRQ $2, R9
cleaner:
	CMPQ R9, $1024
	JLT  fused
	XORQ BX, BX
cleangroup:
	MOVQ BX, SI
	LEAQ (BX)(R9*1), R10
cleanvec:
	LEAQ (SI)(R9*1), DX
	CMPQ DX, CX
	JGE  cleannext
	VMOVDQU64 (DI)(SI*1), Z0
	VMOVDQU64 (DI)(DX*1), Z1
	VPMINUQ Z1, Z0, Z2
	VPMAXUQ Z1, Z0, Z1
	VMOVDQU64 Z2, (DI)(SI*1)
	VMOVDQU64 Z1, (DI)(DX*1)
	ADDQ $64, SI
	CMPQ SI, R10
	JLT  cleanvec
	LEAQ (BX)(R9*2), BX
	CMPQ BX, CX
	JLT  cleangroup
cleannext:
	SHRQ $1, R9
	JMP  cleaner

	// Distance 64 and the in-register finish, per block pair; a last block
	// without a partner is finished alone.
fused:
	XORQ SI, SI
fusedpair:
	LEAQ (DI)(SI*1), R11
	LEAQ 512(SI), DX
	CMPQ DX, CX
	JGE  fusedlone
	LEAQ 512(R11), R12
	LOAD8(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	LOAD8(R12, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	COEX(Z0, Z8); COEX(Z1, Z9); COEX(Z2, Z10); COEX(Z3, Z11)
	COEX(Z4, Z12); COEX(Z5, Z13); COEX(Z6, Z14); COEX(Z7, Z15)
	FINISH64(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	FINISH64(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	STORE8(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	STORE8(R12, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $1024, SI
	CMPQ SI, CX
	JLT  fusedpair
	JMP  next
fusedlone:
	LOAD8(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	FINISH64(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	STORE8(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
next:
	SHLQ $1, R8
	JMP  merge

done:
	VZEROUPPER
	RET

// func dedupeWords(words *uint64, n int64, keys, perm *uint32, expand *int32) int64
// The end of the network's plan (see dedupeWords in sortnet_amd64.go),
// eight words a step: a lane's key is new when it differs from the lane
// before (the first key differs from the all-ones seed, which no key
// equals as a word), its rank among the step's new keys is an expand of
// the ranks under the new-key mask followed by a prefix maximum, and the
// new keys compress into keys[distinct:].  Every load and store is masked
// to the first n lanes of its array.
//
// SI words  R11 n  DI keys  R8 perm  R9 expand  BX the step's first lane
// AX distinct keys so far  Z9 the previous step's keys  Z10 zero
// Z11 the ranks 1…8  Z12 n  Z13 the step's lane numbers  Z14 eight
TEXT ·dedupeWords(SB), NOSPLIT, $0-48
	MOVQ words+0(FP), SI
	MOVQ n+8(FP), R11
	MOVQ keys+16(FP), DI
	MOVQ perm+24(FP), R8
	MOVQ expand+32(FP), R9
	XORQ AX, AX
	XORQ BX, BX
	VPTERNLOGQ $0xFF, Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VMOVDQU ranks<>(SB), Y11
	VPBROADCASTQ R11, Z12
	VMOVDQU64 lanes<>(SB), Z13
	MOVL $8, DX
	VPBROADCASTQ DX, Z14
	JMP  test
step:
	VPCMPUQ $1, Z12, Z13, K1
	VMOVDQU64.Z (SI)(BX*8), K1, Z0
	VPSRLQ $32, Z0, Z1
	VALIGNQ $7, Z9, Z1, Z2
	VPCMPUQ $4, Z2, Z1, K1, K2
	VMOVDQA64 Z1, Z9
	VPMOVQD Z0, Y3
	VMOVDQU32 Z3, K1, (R8)(BX*4)
	VPEXPANDD.Z Z11, K2, Z5
	VALIGND $15, Z10, Z5, Z6
	VPMAXUD Z6, Z5, Z5
	VALIGND $14, Z10, Z5, Z6
	VPMAXUD Z6, Z5, Z5
	VALIGND $12, Z10, Z5, Z6
	VPMAXUD Z6, Z5, Z5
	LEAQ -1(AX), DX
	VPBROADCASTD DX, Z6
	VPADDD Z6, Z5, Z5
	VMOVDQU32 Z5, K1, (R9)(BX*4)
	VPMOVQD Z1, Y4
	VPCOMPRESSD.Z Z4, K2, Z7
	KMOVW K2, CX
	POPCNTL CX, CX
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K3
	VMOVDQU32 Z7, K3, (DI)(AX*4)
	ADDQ CX, AX
	VPADDQ Z14, Z13, Z13
	ADDQ $8, BX
test:
	CMPQ BX, R11
	JLT  step
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET
