#include "textflag.h"

// AVX2 micro-kernels. Each YMM accumulator holds the four strided lane sums
// of one dot product (lane k sums rows ≡ k mod 4 in row order), exactly the
// s0..s3 accumulators of the Go Dot loop. Products and sums use separate
// VMULPD/VADDPD, never FMA, so every lane rounds as the Go code does. Loads
// are unaligned; n is a multiple of 4; callers handle the row tail.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotLanesAVX2(x, y *float64, n int, lanes *[4]float64)
TEXT ·dotLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), AX
	MOVQ y+8(FP), BX
	MOVQ n+16(FP), CX
	MOVQ lanes+24(FP), DI
	VXORPD Y0, Y0, Y0
	XORQ SI, SI
	CMPQ SI, CX
	JGE  dotdone

dotloop:
	VMOVUPD (AX)(SI*8), Y1
	VMULPD  (BX)(SI*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, SI
	CMPQ    SI, CX
	JLT     dotloop

dotdone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func gram3x4AVX2(x *[3]*float64, y *[4]*float64, n int, lanes *[48]float64)
//
// Accumulator Y(4i+j) holds pair (x_i, y_j); lanes[4(4i+j)+k] is its lane k.
TEXT ·gram3x4AVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ y+8(FP), AX
	MOVQ 0(AX), R11
	MOVQ 8(AX), R12
	MOVQ 16(AX), R13
	MOVQ 24(AX), BX
	MOVQ n+16(FP), CX
	MOVQ lanes+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ   SI, SI
	CMPQ   SI, CX
	JGE    g34done

g34loop:
	VMOVUPD (R8)(SI*8), Y12
	VMOVUPD (R9)(SI*8), Y13
	VMOVUPD (R10)(SI*8), Y14

	VMULPD (R11)(SI*8), Y12, Y15
	VADDPD Y15, Y0, Y0
	VMULPD (R11)(SI*8), Y13, Y15
	VADDPD Y15, Y4, Y4
	VMULPD (R11)(SI*8), Y14, Y15
	VADDPD Y15, Y8, Y8

	VMULPD (R12)(SI*8), Y12, Y15
	VADDPD Y15, Y1, Y1
	VMULPD (R12)(SI*8), Y13, Y15
	VADDPD Y15, Y5, Y5
	VMULPD (R12)(SI*8), Y14, Y15
	VADDPD Y15, Y9, Y9

	VMULPD (R13)(SI*8), Y12, Y15
	VADDPD Y15, Y2, Y2
	VMULPD (R13)(SI*8), Y13, Y15
	VADDPD Y15, Y6, Y6
	VMULPD (R13)(SI*8), Y14, Y15
	VADDPD Y15, Y10, Y10

	VMULPD (BX)(SI*8), Y12, Y15
	VADDPD Y15, Y3, Y3
	VMULPD (BX)(SI*8), Y13, Y15
	VADDPD Y15, Y7, Y7
	VMULPD (BX)(SI*8), Y14, Y15
	VADDPD Y15, Y11, Y11

	ADDQ $4, SI
	CMPQ SI, CX
	JLT  g34loop

g34done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VMOVUPD Y10, 320(DI)
	VMOVUPD Y11, 352(DI)
	VZEROUPPER
	RET

// func gram1x4AVX2(x *float64, y *[4]*float64, n int, lanes *[16]float64)
//
// Accumulator Yj holds pair (x, y_j); lanes[4j+k] is its lane k.
TEXT ·gram1x4AVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), R8
	MOVQ y+8(FP), AX
	MOVQ 0(AX), R11
	MOVQ 8(AX), R12
	MOVQ 16(AX), R13
	MOVQ 24(AX), BX
	MOVQ n+16(FP), CX
	MOVQ lanes+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   SI, SI
	CMPQ   SI, CX
	JGE    g14done

g14loop:
	VMOVUPD (R8)(SI*8), Y4
	VMULPD  (R11)(SI*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R12)(SI*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R13)(SI*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (BX)(SI*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, SI
	CMPQ    SI, CX
	JLT     g14loop

g14done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func combineKAVX2(d, src *float64, x *[4]*float64, c *[4]float64, n, k int)
//
// d[r] = src[r] + (((c0·x0[r] + c1·x1[r]) + c2·x2[r]) + c3·x3[r]) over the
// first k ∈ 1..4 columns, the association of the Go combine; src == nil
// stores the sum alone. The k and src branches inside the loop go the same
// way on every iteration, so they predict perfectly.
TEXT ·combineKAVX2(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), DI
	MOVQ         src+8(FP), DX
	MOVQ         x+16(FP), AX
	MOVQ         c+24(FP), BX
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), R12
	MOVQ         0(AX), R8
	VBROADCASTSD 0(BX), Y0
	CMPQ         R12, $2
	JLT          ckloaded
	MOVQ         8(AX), R9
	VBROADCASTSD 8(BX), Y1
	CMPQ         R12, $3
	JLT          ckloaded
	MOVQ         16(AX), R10
	VBROADCASTSD 16(BX), Y2
	CMPQ         R12, $4
	JLT          ckloaded
	MOVQ         24(AX), R11
	VBROADCASTSD 24(BX), Y3

ckloaded:
	XORQ SI, SI
	CMPQ SI, CX
	JGE  ckdone

ckloop:
	VMULPD (R8)(SI*8), Y0, Y4
	CMPQ   R12, $2
	JLT    cksum
	VMULPD (R9)(SI*8), Y1, Y5
	VADDPD Y5, Y4, Y4
	CMPQ   R12, $3
	JLT    cksum
	VMULPD (R10)(SI*8), Y2, Y5
	VADDPD Y5, Y4, Y4
	CMPQ   R12, $4
	JLT    cksum
	VMULPD (R11)(SI*8), Y3, Y5
	VADDPD Y5, Y4, Y4

cksum:
	TESTQ  DX, DX
	JZ     ckstore
	VADDPD (DX)(SI*8), Y4, Y4

ckstore:
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, CX
	JLT     ckloop

ckdone:
	VZEROUPPER
	RET
