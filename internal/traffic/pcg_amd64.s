#include "textflag.h"

// AFFINE sets each lane of (hi, lo) to (hi, lo)·m + a mod 2^128, m and a
// lane vectors and mlo1 = mlo>>32. The high word of lo·mlo comes from four
// 32×32-bit products; Z4–Z9 and K2 are scratch, Z24 holds ones and Z25
// the low-word mask 2^32−1.
#define AFFINE(hi, lo, mhi, mlo, mlo1, ahi, alo) \
	VPSRLQ   $32, lo, Z5        \
	VPMULUDQ mlo, lo, Z4        \
	VPMULUDQ mlo, Z5, Z6        \
	VPMULUDQ mlo1, lo, Z7       \
	VPMULUDQ mlo1, Z5, Z8       \
	VPMULLQ  mlo, hi, hi        \
	VPMULLQ  mhi, lo, Z9        \
	VPADDQ   Z9, hi, hi         \
	VPADDQ   ahi, hi, hi        \
	VPSRLQ   $32, Z4, Z9        \
	VPADDQ   Z9, Z7, Z7         \
	VPANDQ   Z25, Z6, Z9        \
	VPADDQ   Z9, Z7, Z7         \
	VPSRLQ   $32, Z6, Z6        \
	VPADDQ   Z6, Z8, Z8         \
	VPSRLQ   $32, Z7, Z9        \
	VPADDQ   Z9, Z8, Z8         \
	VPADDQ   Z8, hi, hi         \
	VPSLLQ   $32, Z7, Z7        \
	VPANDQ   Z25, Z4, Z4        \
	VPORQ    Z4, Z7, lo         \
	VPADDQ   alo, lo, lo        \
	VPCMPUQ  $1, alo, lo, K2    \
	VPADDQ   Z24, hi, K2, hi

// func firstBelow8(p *pcg, thr uint64, n int, w *wideLanes) int
//
// Z0, Z1: the lanes' hi and lo words; lane k is the state of draw AX+k.
// Z16–Z20: lane 7's jump (eight steps) in every lane; Z21–Z25 constants.
TEXT ·firstBelow8(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ n+16(FP), CX
	MOVQ w+24(FP), R8

	MOVQ         $0xda942042e4dd58b5, AX
	VPBROADCASTQ AX, Z21
	MOVQ         $0x1fffffffffffff, AX
	VPBROADCASTQ AX, Z22
	VPBROADCASTQ thr+8(FP), Z23
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z24
	MOVL         $0xffffffff, AX
	VPBROADCASTQ AX, Z25

	// Lane k := the generator moved k+1 steps: draw k's state.
	VMOVDQU64    0(R8), Z26
	VMOVDQU64    64(R8), Z27
	VPSRLQ       $32, Z27, Z28
	VMOVDQU64    128(R8), Z29
	VMOVDQU64    192(R8), Z30
	VPBROADCASTQ 0(DI), Z0
	VPBROADCASTQ 8(DI), Z1
	AFFINE(Z0, Z1, Z26, Z27, Z28, Z29, Z30)

	VPBROADCASTQ 56(R8), Z16
	VPBROADCASTQ 120(R8), Z17
	VPSRLQ       $32, Z17, Z18
	VPBROADCASTQ 184(R8), Z19
	VPBROADCASTQ 248(R8), Z20

	XORQ AX, AX

loop:
	// K1 := lanes whose output's low 53 bits are below thr (dxsm).
	VPSRLQ   $32, Z0, Z2
	VPXORQ   Z0, Z2, Z2
	VPMULLQ  Z21, Z2, Z2
	VPSRLQ   $48, Z2, Z3
	VPXORQ   Z3, Z2, Z2
	VPORQ    Z24, Z1, Z3
	VPMULLQ  Z3, Z2, Z2
	VPANDQ   Z22, Z2, Z2
	VPCMPUQ  $1, Z23, Z2, K1
	KORTESTB K1, K1
	JNZ      hit
	ADDQ     $8, AX
	CMPQ     AX, CX
	JGE      last
	AFFINE(Z0, Z1, Z16, Z17, Z18, Z19, Z20)
	JMP      loop

hit:
	// The first hit is the lowest lane in K1; leave the generator there.
	KMOVB K1, BX
	BSFL  BX, BX
	ADDQ  BX, AX
	JMP   store

last:
	// No hit: the generator stands at lane 7, the run's last draw.
	MOVQ $7, BX

store:
	VPBROADCASTQ BX, Z2
	VPERMQ       Z0, Z2, Z3
	VMOVQ        X3, 0(DI)
	VPERMQ       Z1, Z2, Z3
	VMOVQ        X3, 8(DI)
	VZEROUPPER
	MOVQ         AX, ret+32(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
