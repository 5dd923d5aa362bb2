#include "textflag.h"
#include "exp_amd64.h"

// ADAMW updates m (Y10), v (Y11) and w (Y12) in registers from g (Y9).
#define ADAMW \
	VMULPD Y10, Y0, Y10 \
	VMULPD Y9, Y1, Y13 \
	VADDPD Y13, Y10, Y10 \
	VMULPD Y11, Y2, Y11 \
	VMULPD Y9, Y3, Y13 \
	VMULPD Y9, Y13, Y13 \
	VADDPD Y13, Y11, Y11 \
	VDIVPD Y4, Y10, Y13 \
	VDIVPD Y5, Y11, Y9 \
	VSQRTPD Y9, Y9 \
	VADDPD Y6, Y9, Y9 \
	VDIVPD Y9, Y13, Y13 \
	VMULPD Y12, Y7, Y9 \
	VADDPD Y9, Y13, Y13 \
	VMULPD Y13, Y8, Y13 \
	VSUBPD Y13, Y12, Y12

// func adamwAVX2(w, m, v, grad *float64, n int, b1, b1c, b2, b2c, c1, c2, eps, wd, lr float64)
//
// AdamW's update (adamw.go has the contract; adamwGo is its Go spelling,
// bit for bit), four elements per step and the last 1..3 under the tail
// mask. Y0-Y8 hold the broadcast scalars; per step Y9 = g, Y10 = m,
// Y11 = v, Y12 = w and Y13 is scratch. Every multiply, add, division and
// square root is its own instruction, in adamwGo's order.
TEXT ·adamwAVX2(SB), NOSPLIT, $0-112
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), R8
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y0
	VBROADCASTSD b1c+48(FP), Y1
	VBROADCASTSD b2+56(FP), Y2
	VBROADCASTSD b2c+64(FP), Y3
	VBROADCASTSD c1+72(FP), Y4
	VBROADCASTSD c2+80(FP), Y5
	VBROADCASTSD eps+88(FP), Y6
	VBROADCASTSD wd+96(FP), Y7
	VBROADCASTSD lr+104(FP), Y8

adamw4:
	CMPQ CX, $4
	JLT  adamwtail
	VMOVUPD (R8), Y9
	VMOVUPD (SI), Y10
	VMOVUPD (DX), Y11
	VMOVUPD (DI), Y12
	ADAMW
	VMOVUPD Y10, (SI)
	VMOVUPD Y11, (DX)
	VMOVUPD Y12, (DI)
	ADDQ $32, R8
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  adamw4
adamwtail:
	TESTQ CX, CX
	JZ   adamwdone
	TAILMASKS(CX)
	VMASKMOVPD (R8), Y14, Y9
	VMASKMOVPD (SI), Y14, Y10
	VMASKMOVPD (DX), Y14, Y11
	VMASKMOVPD (DI), Y14, Y12
	ADAMW
	VMASKMOVPD Y10, Y14, (SI)
	VMASKMOVPD Y11, Y14, (DX)
	VMASKMOVPD Y12, Y14, (DI)
adamwdone:
	VZEROUPPER
	RET
