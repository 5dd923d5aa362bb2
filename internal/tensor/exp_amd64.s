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
// func expAVX512(dst, src *float64, n int)
//
// expAVX2 on eight-lane vectors: EXPZ per eight elements, the last 1..7
// under the opmask K1, whose masked-out lanes neither load nor store.
TEXT ·expAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
expz8:
	CMPQ CX, $8
	JLT  expztail
	VMOVUPD (SI), Z0
	EXPZ(Z0, Z1, Z2, Z3, K2)
	VMOVUPD Z3, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  expz8
expztail:
	TESTQ CX, CX
	JZ    expzdone
	TAILK(CX, K1)
	VMOVUPD.Z (SI), K1, Z0
	EXPZ(Z0, Z1, Z2, Z3, K2)
	VMOVUPD Z3, K1, (DI)
expzdone:
	VZEROUPPER
	RET

// func softmaxRowsAVX2(dst, src *float64, rows, n int)
//
// Per row: the maximum m, then e = exp(x - m) written to dst and summed in
// four lane accumulators (lane j takes elements j, j+4, ...; the masked-out
// lanes of the tail add +0), s = (l0+l2)+(l1+l3), then dst *= 1/s. The even
// rows run first, then the odd ones, so that a row's masked tail store, whose
// footprint may reach into the next row, never feeds the loads that follow
// it (in place, rows of 4 took 16-18 ns per element one after another, 4-8
// this way; BenchmarkSoftmax).
// R11 is the byte length of the row's whole eight-element blocks, R10 the
// 0..7 elements after them, Y14 and Y15 their lane masks, Y12 the broadcast
// m, Y13 the lane sums; the tail's exponentials wait in Y3 and Y7 for the
// scale. R8 counts the sweep's rows left, DX the odd rows after it, and R9
// is two rows' bytes.
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
	SHLQ $4, R9
	TAILMASKS(R10)
	MOVQ R8, DX
	SHRQ $1, DX
	SUBQ DX, R8
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
	MOVQ DX, R8
	XORQ DX, DX
	SHRQ $1, R9
	MOVQ src+8(FP), SI
	ADDQ R9, SI
	MOVQ dst+0(FP), DI
	ADDQ R9, DI
	SHLQ $1, R9
	TESTQ R8, R8
	JNZ  smrow
	VZEROUPPER
	RET

// func softmaxRowsAVX512(dst, src *float64, rows, n int)
//
// softmaxRowsAVX2 on eight-lane vectors, one per eight-element block, whose
// low and high halves are that routine's two YMM vectors: the maximum runs in
// Z14, its halves folded as Y12 and Y13 are there; a block's exponentials Z3
// add into the four lane sums Y13 low half first, then high half (Y7), the
// order VADDPD Y3 then Y7 takes; the tail's exponentials are zeroed past the
// row before they are summed and wait in Z3 for the scale. Each row's
// exponential loop also runs the next row's maximum, block by block in the
// same order (BX), which takes the maximum's chain off the next row's
// critical path. The rows run as softmaxRowsAVX2's, even then odd, so the
// next row is two rows on, or after a sweep's last row the row in CX: the
// first odd row after the even sweep, the first row after the odd one (its
// result unused). R8, DX, R9, R11 and R10 are as there, K1 holds the tail's
// lanes.
TEXT ·softmaxRowsAVX512(SB), NOSPLIT, $0-32
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
	TAILK(R10, K1)
	MOVQ R8, DX
	SHRQ $1, DX
	SUBQ DX, R8
	MOVQ SI, CX
	LEAQ (SI)(R9*1), R12
	TESTQ DX, DX
	CMOVQNE R12, CX
	SHLQ $1, R9
	VBROADCASTSD (SI), Z14
	XORQ AX, AX
szmax:
	CMPQ AX, R11
	JGE  szmaxtail
	VMAXPD (SI)(AX*1), Z14, Z14
	ADDQ $64, AX
	JMP  szmax
szmaxtail:
	TESTQ R10, R10
	JZ    szrow
	VMOVUPD.Z (SI)(AX*1), K1, Z0
	VMAXPD Z0, Z14, K1, Z14
szrow:
	VEXTRACTF64X4 $1, Z14, Y13
	VMAXPD Y13, Y14, Y12
	HREDUCE(VMAXPD, VMAXSD, Y12, X12, X0)
	VBROADCASTSD X12, Z12
	LEAQ (SI)(R9*1), BX
	CMPQ R8, $1
	CMOVQEQ CX, BX
	VBROADCASTSD (BX), Z14

	VXORPD Y13, Y13, Y13
	XORQ AX, AX
szexp:
	CMPQ AX, R11
	JGE  szexptail
	VMOVUPD (SI)(AX*1), Z0
	VMAXPD (BX)(AX*1), Z14, Z14
	VSUBPD Z12, Z0, Z0
	EXPZ(Z0, Z1, Z2, Z3, K2)
	VMOVUPD Z3, (DI)(AX*1)
	VEXTRACTF64X4 $1, Z3, Y7
	VADDPD Y3, Y13, Y13
	VADDPD Y7, Y13, Y13
	ADDQ $64, AX
	JMP  szexp
szexptail:
	TESTQ R10, R10
	JZ    szsum
	VMOVUPD.Z (BX)(AX*1), K1, Z4
	VMAXPD Z4, Z14, K1, Z14
	VMOVUPD.Z (SI)(AX*1), K1, Z0
	VSUBPD Z12, Z0, Z0
	EXPZ(Z0, Z1, Z2, Z3, K2)
	VMOVAPD.Z Z3, K1, Z3
	VEXTRACTF64X4 $1, Z3, Y7
	VADDPD Y3, Y13, Y13
	VADDPD Y7, Y13, Y13
szsum:
	HREDUCE(VADDPD, VADDSD, Y13, X13, X0)
	VMOVSD ONE, X0
	VDIVSD X13, X0, X0
	VBROADCASTSD X0, Z0

	XORQ AX, AX
szscale:
	CMPQ AX, R11
	JGE  szscaletail
	VMULPD (DI)(AX*1), Z0, Z1
	VMOVUPD Z1, (DI)(AX*1)
	ADDQ $64, AX
	JMP  szscale
szscaletail:
	TESTQ R10, R10
	JZ    sznext
	VMULPD Z0, Z3, Z3
	VMOVUPD Z3, K1, (DI)(AX*1)
sznext:
	ADDQ R9, SI
	ADDQ R9, DI
	DECQ R8
	JNZ  szrow
	MOVQ DX, R8
	XORQ DX, DX
	SHRQ $1, R9
	MOVQ src+8(FP), SI
	MOVQ SI, CX
	ADDQ R9, SI
	MOVQ dst+0(FP), DI
	ADDQ R9, DI
	SHLQ $1, R9
	TESTQ R8, R8
	JNZ  szrow
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

// GELUARGZ is GELUARG on eight lanes, with geluK1 in Z10 and 709 in Z12.
#define GELUARGZ(X, A) \
	VMULPD.BCST GK2, X, A \
	VMULPD X, A, A \
	VSUBPD A, Z10, A \
	VMULPD A, X, A \
	VMINPD A, Z12, A

// func geluAVX512(dst, x *float64, n int)
//
// geluAVX2 on eight-lane vectors through EXPZ, the last 1..7 elements under
// the opmask K1.
TEXT ·geluAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD ·geluK+0(SB), Z10
	VBROADCASTSD HI, Z12
geluz8:
	CMPQ CX, $8
	JLT  geluztail
	VMOVUPD (SI), Z0
	GELUARGZ(Z0, Z1)
	EXPZ(Z1, Z2, Z3, Z8, K2)
	VADDPD.BCST ONE, Z8, Z8
	VDIVPD Z8, Z0, Z8
	VMOVUPD Z8, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  geluz8
geluztail:
	TESTQ CX, CX
	JZ    geluzdone
	TAILK(CX, K1)
	VMOVUPD.Z (SI), K1, Z0
	GELUARGZ(Z0, Z1)
	EXPZ(Z1, Z2, Z3, Z8, K2)
	VADDPD.BCST ONE, Z8, Z8
	VDIVPD Z8, Z0, Z8
	VMOVUPD Z8, K1, (DI)
geluzdone:
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
