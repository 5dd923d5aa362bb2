#include "textflag.h"
#include "exp_amd64.h"

// Vector exponential and the row softmax and GELU passes built on it. The
// arithmetic is defined once, in exp.go (expGo, softmaxRowsGo, geluGo and
// geluGradGo are its Go spelling, bit for bit); EXP2 in exp_amd64.h is the
// AVX2+FMA spelling of the exponential.

// func expAVX2(dst, src *float64, n int)
//
// The exponential alone, which the tests hold to expGo and math.Exp.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
exp8:
	CMPQ CX, $8
	JLT  exptail
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y4
	EXP2(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y3, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  exp8
exptail:
	TESTQ CX, CX
	JZ   expdone
	TAILMASKS(CX)
	VMASKMOVPD (SI), Y14, Y0
	VMASKMOVPD 32(SI), Y15, Y4
	EXP2(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMASKMOVPD Y3, Y14, (DI)
	VMASKMOVPD Y7, Y15, 32(DI)
expdone:
	VZEROUPPER
	RET
// func softmaxRowsAVX2(dst, src *float64, rows, n int)
//
// Per row: the maximum m, then e = exp(x - m) written to dst and summed in
// four lane accumulators (lane j takes elements j, j+4, ...; the masked-out
// lanes of the tail add +0), s = (l0+l2)+(l1+l3), then dst *= 1/s. R11 is the
// byte length of the row's whole eight-element blocks, R10 the 0..7 elements
// after them, Y14 and Y15 their lane masks, Y12 the broadcast m, Y13 the lane
// sums; the tail's exponentials wait in Y3 and Y7 for the scale.
TEXT ·softmaxRowsAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ R9, R10
	ANDQ $7, R10
	MOVQ R9, R11
	SUBQ R10, R11
	SHLQ $3, R11
	SHLQ $3, R9
	TAILMASKS(R10)
smrow:
	VBROADCASTSD (SI), Y12
	VMOVAPD Y12, Y13
	XORQ AX, AX
smmax:
	CMPQ AX, R11
	JGE  smmaxtail
	VMAXPD (SI)(AX*1), Y12, Y12
	VMAXPD 32(SI)(AX*1), Y13, Y13
	ADDQ $64, AX
	JMP  smmax
smmaxtail:
	TESTQ R10, R10
	JZ   smmaxdone
	VMASKMOVPD (SI)(AX*1), Y14, Y0
	VMASKMOVPD 32(SI)(AX*1), Y15, Y4
	VBLENDVPD Y14, Y0, Y12, Y0
	VBLENDVPD Y15, Y4, Y13, Y4
	VMAXPD Y0, Y12, Y12
	VMAXPD Y4, Y13, Y13
smmaxdone:
	VMAXPD Y13, Y12, Y12
	HREDUCE(VMAXPD, VMAXSD, Y12, X12, X0)
	VBROADCASTSD X12, Y12

	VXORPD Y13, Y13, Y13
	XORQ AX, AX
smexp:
	CMPQ AX, R11
	JGE  smexptail
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y4
	VSUBPD Y12, Y0, Y0
	VSUBPD Y12, Y4, Y4
	EXP2(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y3, (DI)(AX*1)
	VMOVUPD Y7, 32(DI)(AX*1)
	VADDPD Y3, Y13, Y13
	VADDPD Y7, Y13, Y13
	ADDQ $64, AX
	JMP  smexp
smexptail:
	TESTQ R10, R10
	JZ   smsum
	VMASKMOVPD (SI)(AX*1), Y14, Y0
	VMASKMOVPD 32(SI)(AX*1), Y15, Y4
	VSUBPD Y12, Y0, Y0
	VSUBPD Y12, Y4, Y4
	EXP2(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VANDPD Y14, Y3, Y3
	VANDPD Y15, Y7, Y7
	VADDPD Y3, Y13, Y13
	VADDPD Y7, Y13, Y13
smsum:
	HREDUCE(VADDPD, VADDSD, Y13, X13, X0)
	VMOVSD ONE, X0
	VDIVSD X13, X0, X0
	VBROADCASTSD X0, Y0

	XORQ AX, AX
smscale:
	CMPQ AX, R11
	JGE  smscaletail
	VMULPD (DI)(AX*1), Y0, Y1
	VMULPD 32(DI)(AX*1), Y0, Y2
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, 32(DI)(AX*1)
	ADDQ $64, AX
	JMP  smscale
smscaletail:
	TESTQ R10, R10
	JZ   smnext
	VMULPD Y0, Y3, Y3
	VMULPD Y0, Y7, Y7
	VMASKMOVPD Y3, Y14, (DI)(AX*1)
	VMASKMOVPD Y7, Y15, 32(DI)(AX*1)
smnext:
	ADDQ R9, SI
	ADDQ R9, DI
	DECQ R8
	JNZ  smrow
	VZEROUPPER
	RET

// The GELU passes: eight elements per step, two vectors of four through
// EXP2, the last 1..7 under the tail masks. Every multiply and add outside
// EXP2 is its own instruction, in geluGo's and geluGradGo's order, and the
// exponent is clamped with 709 as the first operand of VMINPD, which returns
// the second (the exponent) when it is NaN. Y10 holds geluK1 and Y12 709.
#define GK2 ·geluK+32(SB)
#define GK3 ·geluK+64(SB)
#define GELUC ·geluK+96(SB)

// GELUARG sets A = min(x*(geluK1 - (geluK2*x)*x), 709) from X.
#define GELUARG(X, A) \
	VMULPD GK2, X, A \
	VMULPD X, A, A \
	VSUBPD A, Y10, A \
	VMULPD A, X, A \
	VMINPD A, Y12, A

// GELUDX sets W = s + ((2*((s*s)*e)*x)*du) from X and E = e, with
// s = 1/(1+e) in S and du = geluC*(1 + (geluK3*x)*x) in U.
#define GELUDX(X, E, S, U, W) \
	VADDPD ONE, E, W \
	VMOVUPD ONE, S \
	VDIVPD W, S, S \
	VMULPD GK3, X, U \
	VMULPD X, U, U \
	VADDPD ONE, U, U \
	VMULPD GELUC, U, U \
	VMULPD S, S, W \
	VMULPD E, W, W \
	VMULPD X, W, W \
	VADDPD W, W, W \
	VMULPD U, W, W \
	VADDPD W, S, W

// func geluAVX2(dst, x *float64, n int)
TEXT ·geluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVUPD ·geluK+0(SB), Y10
	VMOVUPD HI, Y12
gelu8:
	CMPQ CX, $8
	JLT  gelutail
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y4
	GELUARG(Y0, Y1)
	GELUARG(Y4, Y5)
	EXP2(Y1, Y2, Y3, Y8, Y5, Y6, Y7, Y9)
	VADDPD ONE, Y8, Y8
	VADDPD ONE, Y9, Y9
	VDIVPD Y8, Y0, Y8
	VDIVPD Y9, Y4, Y9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  gelu8
gelutail:
	TESTQ CX, CX
	JZ   geludone
	TAILMASKS(CX)
	VMASKMOVPD (SI), Y14, Y0
	VMASKMOVPD 32(SI), Y15, Y4
	GELUARG(Y0, Y1)
	GELUARG(Y4, Y5)
	EXP2(Y1, Y2, Y3, Y8, Y5, Y6, Y7, Y9)
	VADDPD ONE, Y8, Y8
	VADDPD ONE, Y9, Y9
	VDIVPD Y8, Y0, Y8
	VDIVPD Y9, Y4, Y9
	VMASKMOVPD Y8, Y14, (DI)
	VMASKMOVPD Y9, Y15, 32(DI)
geludone:
	VZEROUPPER
	RET

// func geluGradAVX2(dst, x, grad *float64, n int)
TEXT ·geluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ grad+16(FP), DX
	MOVQ n+24(FP), CX
	VMOVUPD ·geluK+0(SB), Y10
	VMOVUPD HI, Y12
gelug8:
	CMPQ CX, $8
	JLT  gelugtail
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y4
	GELUARG(Y0, Y1)
	GELUARG(Y4, Y5)
	EXP2(Y1, Y2, Y3, Y8, Y5, Y6, Y7, Y9)
	GELUDX(Y0, Y8, Y1, Y2, Y3)
	GELUDX(Y4, Y9, Y5, Y6, Y7)
	VMULPD (DX), Y3, Y3
	VMULPD 32(DX), Y7, Y7
	VMOVUPD Y3, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  gelug8
gelugtail:
	TESTQ CX, CX
	JZ   gelugdone
	TAILMASKS(CX)
	VMASKMOVPD (SI), Y14, Y0
	VMASKMOVPD 32(SI), Y15, Y4
	GELUARG(Y0, Y1)
	GELUARG(Y4, Y5)
	EXP2(Y1, Y2, Y3, Y8, Y5, Y6, Y7, Y9)
	GELUDX(Y0, Y8, Y1, Y2, Y3)
	GELUDX(Y4, Y9, Y5, Y6, Y7)
	VMASKMOVPD (DX), Y14, Y11
	VMASKMOVPD 32(DX), Y15, Y13
	VMULPD Y11, Y3, Y3
	VMULPD Y13, Y7, Y7
	VMASKMOVPD Y3, Y14, (DI)
	VMASKMOVPD Y7, Y15, 32(DI)
gelugdone:
	VZEROUPPER
	RET
