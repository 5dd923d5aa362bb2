#include "textflag.h"
#include "exp_amd64.h"

// The pooled attention pass's softmax, pooling and score-gradient steps
// (attnpool.go has the contract and the Go twins; its chains run kernF64 on
// whole tiles and chainGo on the rest). Every routine vectorises across an
// axis whose elements are independent — the key rows of a softmax row, the
// Dh lanes of a head, four query or key rows after a 4x4 transpose — and
// never along a sum: each sum is one register lane walked in the contract's
// order.

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

// func softmaxPoolAVX2(s *float64, sld int, p *float64, pld, tq, tk int, pbar, v *float64, vld, dh int, cbar, rowInv *float64, inv float64)
//
// One head of the forward pass in four sweeps, each over all Tq rows, so
// that independent rows overlap instead of running one after another:
//
//  1. rowInv[i] = the maximum of score row i (s, rows sld apart);
//  2. e = exp(s - rowInv[i]) written to map row i (p, rows pld apart; p may
//     be s), summed into four lanes (lane r takes j = r mod 4 ascending from
//     +0, the masked tail adds +0), then rowInv[i] = 1/((l0+l2)+(l1+l3));
//     the even rows first, then the odd ones, so that a row's masked tail
//     store, whose footprint may reach into the next row when the rows lie
//     Tk apart, never feeds the loads that follow it;
//  3. per block of 16, 8 or the last 1..7 columns, the rows in order: map
//     row i *= rowInv[i], added into the block's column sums, which start at
//     +0 (0 + P is P: P is never -0); pbar = column sum * inv;
//  4. cbar[d] = sum_j fl(pbar[j]*v[j, d]), j ascending from +0, eight then
//     four lanes of d at a time.
//
// That is softmaxRowsAVX2 row by row (its order, its EXP2) followed by the
// pooling loops' order; when wide, step 2 is softmaxRowsAVX512's (EXPZ, the
// same bits). R11 is the byte length of a row's whole eight-element blocks,
// R10 the 0..7 elements after them, Y14 and Y15 their lane masks, and K1
// too when wide.
TEXT ·softmaxPoolAVX2(SB), NOSPLIT, $0-105
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

	// 2. Exponentials, their lane sums and the rows' reciprocal sums; when
	// wide, each row's blocks run expwide, after the return. The even rows
	// (CX of them) two rows apart, then the odd ones (DX); R8 and R9 hold
	// twice the row strides meanwhile.
	MOVQ s+0(FP), SI
	MOVQ p+16(FP), DI
	MOVQ rowInv+88(FP), R12
	MOVQ tq+32(FP), CX
	MOVQ CX, DX
	SHRQ $1, DX
	SUBQ DX, CX
	SHLQ $1, R8
	SHLQ $1, R9
	MOVBQZX wide+104(FP), R13
	TESTQ R13, R13
	JZ    exprow
	TAILK(R10, K1)
exprow:
	VXORPD Y13, Y13, Y13
	XORQ AX, AX
	TESTQ R13, R13
	JNZ   expwide
	VBROADCASTSD (R12), Y12
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
	ADDQ $16, R12
	DECQ CX
	JNZ  exprow
	MOVQ DX, CX
	XORQ DX, DX
	SHRQ $1, R8
	SHRQ $1, R9
	MOVQ s+0(FP), SI
	ADDQ R8, SI
	MOVQ p+16(FP), DI
	ADDQ R9, DI
	MOVQ rowInv+88(FP), R12
	ADDQ $8, R12
	TESTQ CX, CX
	JZ   norm
	SHLQ $1, R8
	SHLQ $1, R9
	JMP  exprow

	// 3. Normalise, column block by column block, summing the rows.
norm:
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

	// Step 2's blocks and tail of one row on eight-lane vectors: each
	// block's exponentials Z3 add into the lane sums Y13 low half first,
	// then high half, the order VADDPD Y3 then Y7 takes above.
expwide:
	VBROADCASTSD (R12), Z12
expwblk:
	CMPQ AX, R11
	JGE  expwtail
	VMOVUPD (SI)(AX*1), Z0
	VSUBPD Z12, Z0, Z0
	EXPZ(Z0, Z1, Z2, Z3, K2)
	VMOVUPD Z3, (DI)(AX*1)
	VEXTRACTF64X4 $1, Z3, Y7
	VADDPD Y3, Y13, Y13
	VADDPD Y7, Y13, Y13
	ADDQ $64, AX
	JMP  expwblk
expwtail:
	TESTQ R10, R10
	JZ    expsum
	VMOVUPD.Z (SI)(AX*1), K1, Z0
	VSUBPD Z12, Z0, Z0
	EXPZ(Z0, Z1, Z2, Z3, K2)
	VMOVAPD.Z Z3, K1, Z3
	VMOVUPD Z3, K1, (DI)(AX*1)
	VEXTRACTF64X4 $1, Z3, Y7
	VADDPD Y3, Y13, Y13
	VADDPD Y7, Y13, Y13
	JMP  expsum

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
//  1. dpb[j] = (sum_d fl(dc[d]*v[j, d]), d ascending from +0) * inv for four
//     key rows at a time: their products four lanes of d at a time,
//     transposed so that each row's sum is one lane (dpb is padded to Tk4
//     with zeros);
//  2. dv[j, :] = pbar[j]*dc, Dh lanes at a time, after the last read of v,
//     so that dv may be v;
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

	// 1. dpb, four key rows at a time.
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

	// 2. dv (DX still dc, R8 vld and R13 Dh in bytes).
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
