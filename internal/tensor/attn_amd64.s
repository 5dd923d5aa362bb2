#include "textflag.h"
#include "exp_amd64.h"

// The pooled attention pass (attnpool.go has the contract and the Go twins).
// Every routine vectorises across an axis whose elements are independent —
// a product's output columns, the key rows of a softmax row, the Dh lanes of
// a head, four query or key rows after a 4x4 transpose — and never along a
// sum: each sum is one register lane walked in the contract's order.

// TRANSPOSE4 turns rows Y0..Y3 into columns Y8..Y11 (Yq = element q of each
// row), through Y4..Y7.
#define TRANSPOSE4 \
	VUNPCKLPD Y1, Y0, Y4 \
	VUNPCKHPD Y1, Y0, Y5 \
	VUNPCKLPD Y3, Y2, Y6 \
	VUNPCKHPD Y3, Y2, Y7 \
	VPERM2F128 $0x20, Y6, Y4, Y8 \
	VPERM2F128 $0x20, Y7, Y5, Y9 \
	VPERM2F128 $0x31, Y6, Y4, Y10 \
	VPERM2F128 $0x31, Y7, Y5, Y11

// ADD4 adds the columns Y8..Y11 into the lane sums acc, in that order.
#define ADD4(acc) \
	VADDPD Y8, acc, acc \
	VADDPD Y9, acc, acc \
	VADDPD Y10, acc, acc \
	VADDPD Y11, acc, acc

// func chainAVX2(a *float64, ars, aps int, b *float64, ldb int, c *float64, ldc, rows, depth, width int, alpha float64, accum bool)
//
// c[r, x] = alpha * chain_p A[r, p]*B[p, x], or c + that with accum, where
// A[r, p] = a[r*ars + p*aps] and B[p, x] = b[p*ldb + x]: one FMA per depth
// step into an accumulator that starts at +0, then a multiply by alpha and a
// separate add: kernF64's arithmetic, for the columns and rows its whole
// tiles leave (chain in attnpool.go hands it those). Columns go four at a
// time (width is a multiple of 4), rows four at a time and then one by one.
// R13 is the byte offset of the column block in B and C, R14 the width in
// bytes, SI the block's first A row, DX its first C row, DI the rows left;
// Y15 holds alpha.
TEXT ·chainAVX2(SB), NOSPLIT, $0-89
	MOVQ ars+8(FP), R9
	MOVQ aps+16(FP), R11
	MOVQ ldb+32(FP), R12
	MOVQ ldc+48(FP), R8
	SHLQ $3, R9
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R8
	LEAQ (R9)(R9*2), R10
	VBROADCASTSD alpha+80(FP), Y15
	XORQ R13, R13
	MOVQ width+72(FP), R14
	SHLQ $3, R14

cols4:
	CMPQ R13, R14
	JGE  chaindone
	MOVQ a+0(FP), SI
	MOVQ c+40(FP), DX
	ADDQ R13, DX
	MOVQ rows+56(FP), DI
rows4x4:
	CMPQ DI, $4
	JLT  rows4x1
	MOVQ SI, AX
	MOVQ b+24(FP), BX
	ADDQ R13, BX
	MOVQ depth+64(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
loop4x4:
	VMOVUPD (BX), Y8
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R9*1), Y11
	VBROADCASTSD (AX)(R9*2), Y12
	VBROADCASTSD (AX)(R10*1), Y13
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y8, Y11, Y1
	VFMADD231PD Y8, Y12, Y2
	VFMADD231PD Y8, Y13, Y3
	ADDQ R11, AX
	ADDQ R12, BX
	DECQ CX
	JNZ  loop4x4
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	LEAQ (DX)(R8*2), AX
	CMPB accum+88(FP), $0
	JE   store4x4
	VADDPD (DX), Y0, Y0
	VADDPD (DX)(R8*1), Y1, Y1
	VADDPD (AX), Y2, Y2
	VADDPD (AX)(R8*1), Y3, Y3
store4x4:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(R8*1)
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R8*1)
	LEAQ (DX)(R8*4), DX
	LEAQ (SI)(R9*4), SI
	SUBQ $4, DI
	JMP  rows4x4
rows4x1:
	TESTQ DI, DI
	JZ   next4
	MOVQ SI, AX
	MOVQ b+24(FP), BX
	ADDQ R13, BX
	MOVQ depth+64(FP), CX
	VXORPD Y0, Y0, Y0
loop4x1:
	VBROADCASTSD (AX), Y10
	VFMADD231PD (BX), Y10, Y0
	ADDQ R11, AX
	ADDQ R12, BX
	DECQ CX
	JNZ  loop4x1
	VMULPD Y15, Y0, Y0
	CMPB accum+88(FP), $0
	JE   store4x1
	VADDPD (DX), Y0, Y0
store4x1:
	VMOVUPD Y0, (DX)
	ADDQ R8, DX
	ADDQ R9, SI
	DECQ DI
	JMP  rows4x1
next4:
	ADDQ $32, R13
	JMP  cols4

chaindone:
	VZEROUPPER
	RET

// func softmaxPoolAVX2(s *float64, sld int, p *float64, pld, tq, tk int, pbar, v *float64, vld, dh int, cbar, rowInv *float64, inv float64)
//
// One head of the forward pass in four sweeps, each over all Tq rows, so
// that independent rows overlap instead of running one after another:
//
//  1. rowInv[i] = the maximum of score row i (s, rows sld apart);
//  2. e = exp(s - rowInv[i]) written to map row i (p, rows pld apart; p may
//     be s), summed into four lanes (lane r takes j = r mod 4 ascending from
//     +0, the masked tail adds +0), then rowInv[i] = 1/((l0+l2)+(l1+l3));
//  3. per block of 16, 8 or the last 1..7 columns, the rows in order: map
//     row i *= rowInv[i], added into the block's column sums, which start at
//     +0 (0 + P is P: P is never -0); pbar = column sum * inv;
//  4. cbar[d] = sum_j fl(pbar[j]*v[j, d]), j ascending from +0, eight then
//     four lanes of d at a time.
//
// That is softmaxRowsAVX2 row by row (its order, its EXP2) followed by the
// pooling loops' order. R11 is the byte length of a row's whole eight-element
// blocks, R10 the 0..7 elements after them, Y14 and Y15 their lane masks.
TEXT ·softmaxPoolAVX2(SB), NOSPLIT, $0-104
	MOVQ tk+40(FP), R10
	MOVQ R10, R11
	ANDQ $7, R10
	SUBQ R10, R11
	SHLQ $3, R11
	TAILMASKS(R10)
	MOVQ sld+8(FP), R8
	SHLQ $3, R8
	MOVQ pld+24(FP), R9
	SHLQ $3, R9

	// 1. Row maxima.
	MOVQ s+0(FP), SI
	MOVQ rowInv+88(FP), DI
	MOVQ tq+32(FP), CX
maxrow:
	VBROADCASTSD (SI), Y12
	VMOVAPD Y12, Y13
	XORQ AX, AX
maxblk:
	CMPQ AX, R11
	JGE  maxtail
	VMAXPD (SI)(AX*1), Y12, Y12
	VMAXPD 32(SI)(AX*1), Y13, Y13
	ADDQ $64, AX
	JMP  maxblk
maxtail:
	TESTQ R10, R10
	JZ   maxdone
	VMASKMOVPD (SI)(AX*1), Y14, Y0
	VMASKMOVPD 32(SI)(AX*1), Y15, Y4
	VBLENDVPD Y14, Y0, Y12, Y0
	VBLENDVPD Y15, Y4, Y13, Y4
	VMAXPD Y0, Y12, Y12
	VMAXPD Y4, Y13, Y13
maxdone:
	VMAXPD Y13, Y12, Y12
	HREDUCE(VMAXPD, VMAXSD, Y12, X12, X0)
	VMOVSD X12, (DI)
	ADDQ R8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  maxrow

	// 2. Exponentials, their lane sums and the rows' reciprocal sums.
	MOVQ s+0(FP), SI
	MOVQ p+16(FP), DI
	MOVQ rowInv+88(FP), R12
	MOVQ tq+32(FP), CX
exprow:
	VBROADCASTSD (R12), Y12
	VXORPD Y13, Y13, Y13
	XORQ AX, AX
expblk:
	CMPQ AX, R11
	JGE  exptail
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
	JMP  expblk
exptail:
	TESTQ R10, R10
	JZ   expsum
	VMASKMOVPD (SI)(AX*1), Y14, Y0
	VMASKMOVPD 32(SI)(AX*1), Y15, Y4
	VSUBPD Y12, Y0, Y0
	VSUBPD Y12, Y4, Y4
	EXP2(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VANDPD Y14, Y3, Y3
	VANDPD Y15, Y7, Y7
	VMASKMOVPD Y3, Y14, (DI)(AX*1)
	VMASKMOVPD Y7, Y15, 32(DI)(AX*1)
	VADDPD Y3, Y13, Y13
	VADDPD Y7, Y13, Y13
expsum:
	HREDUCE(VADDPD, VADDSD, Y13, X13, X0)
	VMOVSD ONE, X0
	VDIVSD X13, X0, X0
	VMOVSD X0, (R12)
	ADDQ R8, SI
	ADDQ R9, DI
	ADDQ $8, R12
	DECQ CX
	JNZ  exprow

	// 3. Normalise, column block by column block, summing the rows.
	VBROADCASTSD inv+96(FP), Y13
	MOVQ pbar+48(FP), DX
	XORQ AX, AX
norm16:
	LEAQ 128(AX), BX
	CMPQ BX, R11
	JGT  norm8
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ p+16(FP), SI
	ADDQ AX, SI
	MOVQ rowInv+88(FP), BX
	MOVQ tq+32(FP), CX
norm16row:
	VBROADCASTSD (BX), Y0
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VMULPD 64(SI), Y0, Y3
	VMULPD 96(SI), Y0, Y8
	VMOVUPD Y1, (SI)
	VMOVUPD Y2, 32(SI)
	VMOVUPD Y3, 64(SI)
	VMOVUPD Y8, 96(SI)
	VADDPD Y1, Y4, Y4
	VADDPD Y2, Y5, Y5
	VADDPD Y3, Y6, Y6
	VADDPD Y8, Y7, Y7
	ADDQ R9, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  norm16row
	VMULPD Y13, Y4, Y4
	VMULPD Y13, Y5, Y5
	VMULPD Y13, Y6, Y6
	VMULPD Y13, Y7, Y7
	VMOVUPD Y4, (DX)(AX*1)
	VMOVUPD Y5, 32(DX)(AX*1)
	VMOVUPD Y6, 64(DX)(AX*1)
	VMOVUPD Y7, 96(DX)(AX*1)
	ADDQ $128, AX
	JMP  norm16
norm8:
	CMPQ AX, R11
	JGE  normtail
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ p+16(FP), SI
	ADDQ AX, SI
	MOVQ rowInv+88(FP), BX
	MOVQ tq+32(FP), CX
norm8row:
	VBROADCASTSD (BX), Y0
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VMOVUPD Y1, (SI)
	VMOVUPD Y2, 32(SI)
	VADDPD Y1, Y4, Y4
	VADDPD Y2, Y5, Y5
	ADDQ R9, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  norm8row
	VMULPD Y13, Y4, Y4
	VMULPD Y13, Y5, Y5
	VMOVUPD Y4, (DX)(AX*1)
	VMOVUPD Y5, 32(DX)(AX*1)
	ADDQ $64, AX
normtail:
	TESTQ R10, R10
	JZ   ctx
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ p+16(FP), SI
	ADDQ AX, SI
	MOVQ rowInv+88(FP), BX
	MOVQ tq+32(FP), CX
normtailrow:
	VBROADCASTSD (BX), Y0
	VMASKMOVPD (SI), Y14, Y1
	VMASKMOVPD 32(SI), Y15, Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMASKMOVPD Y1, Y14, (SI)
	VMASKMOVPD Y2, Y15, 32(SI)
	VADDPD Y1, Y4, Y4
	VADDPD Y2, Y5, Y5
	ADDQ R9, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  normtailrow
	VMULPD Y13, Y4, Y4
	VMULPD Y13, Y5, Y5
	VMASKMOVPD Y4, Y14, (DX)(AX*1)
	VMASKMOVPD Y5, Y15, 32(DX)(AX*1)

	// 4. The pooled context.
ctx:
	MOVQ v+56(FP), SI
	MOVQ vld+64(FP), R8
	SHLQ $3, R8
	MOVQ cbar+80(FP), DX
	MOVQ dh+72(FP), R13
	SHLQ $3, R13
	XORQ R12, R12
ctx8:
	MOVQ R13, AX
	SUBQ R12, AX
	CMPQ AX, $64
	JLT  ctx4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ pbar+48(FP), DI
	LEAQ (SI)(R12*1), BX
	MOVQ tk+40(FP), CX
ctx8j:
	VBROADCASTSD (DI), Y2
	VMULPD (BX), Y2, Y3
	VMULPD 32(BX), Y2, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	ADDQ $8, DI
	ADDQ R8, BX
	DECQ CX
	JNZ  ctx8j
	VMOVUPD Y0, (DX)(R12*1)
	VMOVUPD Y1, 32(DX)(R12*1)
	ADDQ $64, R12
	JMP  ctx8
ctx4:
	TESTQ AX, AX
	JZ   smpdone
	VXORPD Y0, Y0, Y0
	MOVQ pbar+48(FP), DI
	LEAQ (SI)(R12*1), BX
	MOVQ tk+40(FP), CX
ctx4j:
	VBROADCASTSD (DI), Y2
	VMULPD (BX), Y2, Y3
	VADDPD Y3, Y0, Y0
	ADDQ $8, DI
	ADDQ R8, BX
	DECQ CX
	JNZ  ctx4j
	VMOVUPD Y0, (DX)(R12*1)
smpdone:
	VZEROUPPER
	RET

// ROWS4 points R9, R10 and R11 at the three rows after SI, AX bytes apart,
// and those past the CX rows left at the zero row in BX.
#define ROWS4 \
	LEAQ (SI)(AX*1), R9 \
	LEAQ (R9)(AX*1), R10 \
	LEAQ (R10)(AX*1), R11 \
	CMPQ CX, $2 \
	CMOVQLT BX, R9 \
	CMPQ CX, $3 \
	CMOVQLT BX, R10 \
	CMPQ CX, $4 \
	CMOVQLT BX, R11

// func poolBwdAVX2(p *float64, pld int, pbar, dc, v *float64, vld int, dv, ds *float64, dsld int, dpb, dot, zero *float64, tq, tk, dh int, inv float64)
//
// One head of the backward pass up to the score gradient, in three sweeps:
//
//  1. dv[j, :] = pbar[j]*dc, Dh lanes at a time;
//  2. dpb[j] = (sum_d fl(dc[d]*v[j, d]), d ascending from +0) * inv for four
//     key rows at a time: their products four lanes of d at a time,
//     transposed so that each row's sum is one lane (dpb is padded to Tk4
//     with zeros);
//  3. per four map rows (p, rows pld apart; rows past Tq read the zero row),
//     dot[i] = sum_j fl(P[i, j]*dpb[j]), j ascending from +0, the same way,
//     for all rows first, so that the groups' sums overlap (dot holds Tq
//     rounded up to 4); then ds[i, j] = P[i, j]*(dpb[j] - dot[i]) (rows dsld
//     apart, Tk4 wide).
//
// Y14 masks the Tk mod 4 key columns of a ragged last block.
TEXT ·poolBwdAVX2(SB), NOSPLIT, $0-128
	MOVQ tk+104(FP), R14
	ANDQ $3, R14
	TAILMASKS(R14)
	MOVQ dh+112(FP), R13
	SHLQ $3, R13
	MOVQ vld+40(FP), R8
	SHLQ $3, R8
	MOVQ dc+24(FP), DX

	// 1. dv.
	MOVQ dv+48(FP), SI
	MOVQ pbar+16(FP), DI
	MOVQ tk+104(FP), CX
dvrow:
	VBROADCASTSD (DI), Y0
	XORQ AX, AX
dvlanes:
	VMULPD (DX)(AX*1), Y0, Y1
	VMOVUPD Y1, (SI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R13
	JLT  dvlanes
	ADDQ R8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  dvrow

	// 2. dpb, four key rows at a time.
	VBROADCASTSD inv+120(FP), Y15
	MOVQ v+32(FP), R12
	MOVQ zero+88(FP), BX
	MOVQ dpb+72(FP), DI
	MOVQ tk+104(FP), CX
dpgroup:
	MOVQ R12, SI
	MOVQ R8, AX
	ROWS4
	VXORPD Y12, Y12, Y12
	XORQ AX, AX
dplanes:
	VMOVUPD (DX)(AX*1), Y13
	VMULPD (SI)(AX*1), Y13, Y0
	VMULPD (R9)(AX*1), Y13, Y1
	VMULPD (R10)(AX*1), Y13, Y2
	VMULPD (R11)(AX*1), Y13, Y3
	TRANSPOSE4
	ADD4(Y12)
	ADDQ $32, AX
	CMPQ AX, R13
	JLT  dplanes
	VMULPD Y15, Y12, Y12
	CMPQ CX, $4
	JGE  dpstore
	VANDPD Y14, Y12, Y12
dpstore:
	VMOVUPD Y12, (DI)
	ADDQ $32, DI
	LEAQ (R12)(R8*4), R12
	SUBQ $4, CX
	JG   dpgroup

	// 3. The dots of every four map rows (SI the group's first row), then
	// their ds rows. R13 is the byte length of the whole four-column blocks,
	// R12 dpb, DX the group's dots.
	MOVQ tk+104(FP), R13
	SUBQ R14, R13
	SHLQ $3, R13
	MOVQ dpb+72(FP), R12
	MOVQ p+0(FP), SI
	MOVQ dot+80(FP), DX
	MOVQ tq+96(FP), CX
dotgroup:
	MOVQ pld+8(FP), AX
	SHLQ $3, AX
	MOVQ zero+88(FP), BX
	ROWS4
	VXORPD Y12, Y12, Y12
	XORQ AX, AX
dotblk:
	CMPQ AX, R13
	JGE  dottail
	VMOVUPD (R12)(AX*1), Y13
	VMULPD (SI)(AX*1), Y13, Y0
	VMULPD (R9)(AX*1), Y13, Y1
	VMULPD (R10)(AX*1), Y13, Y2
	VMULPD (R11)(AX*1), Y13, Y3
	TRANSPOSE4
	ADD4(Y12)
	ADDQ $32, AX
	JMP  dotblk
dottail:
	TESTQ R14, R14
	JZ   dotdone
	VMOVUPD (R12)(AX*1), Y13
	VMASKMOVPD (SI)(AX*1), Y14, Y0
	VMASKMOVPD (R9)(AX*1), Y14, Y1
	VMASKMOVPD (R10)(AX*1), Y14, Y2
	VMASKMOVPD (R11)(AX*1), Y14, Y3
	VMULPD Y13, Y0, Y0
	VMULPD Y13, Y1, Y1
	VMULPD Y13, Y2, Y2
	VMULPD Y13, Y3, Y3
	TRANSPOSE4
	ADD4(Y12)
dotdone:
	VMOVUPD Y12, (DX)
	ADDQ $32, DX
	MOVQ pld+8(FP), AX
	SHLQ $5, AX
	ADDQ AX, SI
	SUBQ $4, CX
	JG   dotgroup

	// ds, four rows at a time: DI, DX and BX the group's first three ds
	// rows (advanced along the row), R8 dsld; the group's dots in Y4..Y7.
	MOVQ dsld+64(FP), R8
	SHLQ $3, R8
	MOVQ p+0(FP), SI
	MOVQ tq+96(FP), CX
dsgroup:
	MOVQ pld+8(FP), AX
	SHLQ $3, AX
	MOVQ zero+88(FP), BX
	ROWS4
	MOVQ dot+80(FP), DX
	VBROADCASTSD (DX), Y4
	VBROADCASTSD 8(DX), Y5
	VBROADCASTSD 16(DX), Y6
	VBROADCASTSD 24(DX), Y7
	ADDQ $32, DX
	MOVQ DX, dot+80(FP)
	MOVQ ds+56(FP), DI
	LEAQ (DI)(R8*1), DX
	LEAQ (DX)(R8*1), BX
	XORQ AX, AX
dsblk:
	CMPQ AX, R13
	JGE  dstail
	VMOVUPD (R12)(AX*1), Y13
	VSUBPD Y4, Y13, Y0
	VSUBPD Y5, Y13, Y1
	VSUBPD Y6, Y13, Y2
	VSUBPD Y7, Y13, Y3
	VMULPD (SI)(AX*1), Y0, Y0
	VMULPD (R9)(AX*1), Y1, Y1
	VMULPD (R10)(AX*1), Y2, Y2
	VMULPD (R11)(AX*1), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DX)
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, (BX)(R8*1)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, BX
	ADDQ $32, AX
	JMP  dsblk
dstail:
	TESTQ R14, R14
	JZ   dsnext
	VMOVUPD (R12)(AX*1), Y13
	VSUBPD Y4, Y13, Y0
	VSUBPD Y5, Y13, Y1
	VSUBPD Y6, Y13, Y2
	VSUBPD Y7, Y13, Y3
	VMASKMOVPD (SI)(AX*1), Y14, Y8
	VMASKMOVPD (R9)(AX*1), Y14, Y9
	VMASKMOVPD (R10)(AX*1), Y14, Y10
	VMASKMOVPD (R11)(AX*1), Y14, Y11
	VMULPD Y8, Y0, Y0
	VMULPD Y9, Y1, Y1
	VMULPD Y10, Y2, Y2
	VMULPD Y11, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DX)
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, (BX)(R8*1)
dsnext:
	MOVQ ds+56(FP), DI
	LEAQ (DI)(R8*4), DI
	MOVQ DI, ds+56(FP)
	MOVQ pld+8(FP), AX
	SHLQ $5, AX
	ADDQ AX, SI
	SUBQ $4, CX
	JG   dsgroup
	VZEROUPPER
	RET
