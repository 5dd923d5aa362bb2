#include "textflag.h"

// Micro-kernels of the blocked matmul driver in gemm.go: kernF64 and kernF32
// on AVX2, and kernF64AVX512, kernF64's arithmetic on AVX-512. A call
// computes `tiles` stacked 4 x nr register tiles of one column panel (two
// adjacent panels in kernF64AVX512): tile t is rows 4t..4t+3 of A against
// the same kb x nr strip of B.
// The operands are read where they lie, by address and stride (elements):
//
//   A[i, p] = a[i*ars + p*aps]   A as stored (ars = lda, aps = 1), A^T as
//                                stored (1, lda) or a packed tile (1, 4)
//   B[p, j] = b[p*bps + j]       the nr columns contiguous: B as stored
//                                (bps = ldb) or a packed panel (bps = nr)
//
// Each tile is one FMA chain per element over p ascending, scaled by alpha
// and written to the float64 destination c, whose rows are ldc elements
// apart: c = alpha*acc, or c = c + alpha*acc with accum. The scale and the
// add are separate roundings (never fused), so a tile written to scratch and
// added by the Go driver equals one accumulated here. Then the epilogue, one
// rounding per add: + bias[j] when bias is non-nil, then + res[i*rld + j]
// when res is non-nil (rld 0: one row for every row), as memory-operand
// adds on the way to the store. Nothing outside the 4*tiles x kb elements of
// A, the kb x nr of B, the 4*tiles x nr of C and of the residual, and the nr
// of the bias row is read or written.

// func kernF64(k int, a *float64, ars, aps int, b *float64, bps int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int)
TEXT ·kernF64(SB), NOSPLIT, $0-112
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R9
	MOVQ aps+24(FP), R11
	MOVQ bps+40(FP), R12
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R8
	MOVQ tiles+64(FP), DI
	MOVQ res+96(FP), R14
	SHLQ $3, R9
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R8
	LEAQ (R9)(R9*2), R10
	VBROADCASTSD alpha+72(FP), Y11
tile64:
	MOVQ SI, AX
	MOVQ b+32(FP), BX
	MOVQ k+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
loop64:
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13
	VBROADCASTSD (AX), Y14
	VBROADCASTSD (AX)(R9*1), Y15
	VFMADD231PD Y12, Y14, Y0
	VFMADD231PD Y13, Y14, Y1
	VFMADD231PD Y12, Y15, Y2
	VFMADD231PD Y13, Y15, Y3
	VBROADCASTSD (AX)(R9*2), Y14
	VBROADCASTSD (AX)(R10*1), Y15
	VFMADD231PD Y12, Y14, Y4
	VFMADD231PD Y13, Y14, Y5
	VFMADD231PD Y12, Y15, Y6
	VFMADD231PD Y13, Y15, Y7
	ADDQ R11, AX
	ADDQ R12, BX
	DECQ CX
	JNZ  loop64
	VMULPD Y11, Y0, Y0
	VMULPD Y11, Y1, Y1
	VMULPD Y11, Y2, Y2
	VMULPD Y11, Y3, Y3
	VMULPD Y11, Y4, Y4
	VMULPD Y11, Y5, Y5
	VMULPD Y11, Y6, Y6
	VMULPD Y11, Y7, Y7
	LEAQ (DX)(R8*2), R13
	CMPB accum+80(FP), $0
	JE   bias64
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD (DX)(R8*1), Y2, Y2
	VADDPD 32(DX)(R8*1), Y3, Y3
	VADDPD (R13), Y4, Y4
	VADDPD 32(R13), Y5, Y5
	VADDPD (R13)(R8*1), Y6, Y6
	VADDPD 32(R13)(R8*1), Y7, Y7
bias64:
	MOVQ bias+88(FP), AX
	TESTQ AX, AX
	JZ   res64
	VMOVUPD (AX), Y12
	VMOVUPD 32(AX), Y13
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
res64:
	// R14 walks the residual rows, AX is their stride in bytes.
	TESTQ R14, R14
	JZ   store64
	MOVQ rld+104(FP), AX
	SHLQ $3, AX
	LEAQ (R14)(AX*2), BX
	VADDPD (R14), Y0, Y0
	VADDPD 32(R14), Y1, Y1
	VADDPD (R14)(AX*1), Y2, Y2
	VADDPD 32(R14)(AX*1), Y3, Y3
	VADDPD (BX), Y4, Y4
	VADDPD 32(BX), Y5, Y5
	VADDPD (BX)(AX*1), Y6, Y6
	VADDPD 32(BX)(AX*1), Y7, Y7
	LEAQ (BX)(AX*2), R14
store64:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R8*1)
	VMOVUPD Y3, 32(DX)(R8*1)
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (R13)(R8*1)
	VMOVUPD Y7, 32(R13)(R8*1)
	LEAQ (SI)(R9*4), SI
	LEAQ (DX)(R8*4), DX
	DECQ DI
	JNZ  tile64
	VZEROUPPER
	RET

// F32ROW converts one tile row (lo, hi: 8 float32 each) to 16 float64,
// scales by alpha (Y12), accumulates C at (DX) with accum, adds the bias
// row at (R13) and the residual row at (R14) where they are non-nil, stores
// it at (DX) and steps DX and R14 to the next row (CX: the residual's row
// stride in bytes).
#define F32ROW(lo, xlo, hi, xhi, skipc, skipb, skipr) \
	VCVTPS2PD xlo, Y8 \
	VEXTRACTF128 $1, lo, X9 \
	VCVTPS2PD X9, Y9 \
	VCVTPS2PD xhi, Y10 \
	VEXTRACTF128 $1, hi, X11 \
	VCVTPS2PD X11, Y11 \
	VMULPD Y12, Y8, Y8 \
	VMULPD Y12, Y9, Y9 \
	VMULPD Y12, Y10, Y10 \
	VMULPD Y12, Y11, Y11 \
	CMPB accum+80(FP), $0 \
	JE   skipc \
	VADDPD (DX), Y8, Y8 \
	VADDPD 32(DX), Y9, Y9 \
	VADDPD 64(DX), Y10, Y10 \
	VADDPD 96(DX), Y11, Y11 \
skipc: \
	TESTQ R13, R13 \
	JZ   skipb \
	VADDPD (R13), Y8, Y8 \
	VADDPD 32(R13), Y9, Y9 \
	VADDPD 64(R13), Y10, Y10 \
	VADDPD 96(R13), Y11, Y11 \
skipb: \
	TESTQ R14, R14 \
	JZ   skipr \
	VADDPD (R14), Y8, Y8 \
	VADDPD 32(R14), Y9, Y9 \
	VADDPD 64(R14), Y10, Y10 \
	VADDPD 96(R14), Y11, Y11 \
	ADDQ CX, R14 \
skipr: \
	VMOVUPD Y8, (DX) \
	VMOVUPD Y9, 32(DX) \
	VMOVUPD Y10, 64(DX) \
	VMOVUPD Y11, 96(DX) \
	ADDQ R8, DX

// func kernF32(k int, a *float32, ars, aps int, b *float32, bps int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int)
TEXT ·kernF32(SB), NOSPLIT, $0-112
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R9
	MOVQ aps+24(FP), R11
	MOVQ bps+40(FP), R12
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R8
	MOVQ tiles+64(FP), DI
	MOVQ bias+88(FP), R13
	MOVQ res+96(FP), R14
	SHLQ $2, R9
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $3, R8
	LEAQ (R9)(R9*2), R10
tile32:
	MOVQ SI, AX
	MOVQ b+32(FP), BX
	MOVQ k+0(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
loop32:
	VMOVUPS (BX), Y12
	VMOVUPS 32(BX), Y13
	VBROADCASTSS (AX), Y14
	VBROADCASTSS (AX)(R9*1), Y15
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VFMADD231PS Y12, Y15, Y2
	VFMADD231PS Y13, Y15, Y3
	VBROADCASTSS (AX)(R9*2), Y14
	VBROADCASTSS (AX)(R10*1), Y15
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	ADDQ R11, AX
	ADDQ R12, BX
	DECQ CX
	JNZ  loop32
	VBROADCASTSD alpha+72(FP), Y12
	MOVQ rld+104(FP), CX
	SHLQ $3, CX
	F32ROW(Y0, X0, Y1, X1, c1, b1, r1)
	F32ROW(Y2, X2, Y3, X3, c2, b2, r2)
	F32ROW(Y4, X4, Y5, X5, c3, b3, r3)
	F32ROW(Y6, X6, Y7, X7, c4, b4, r4)
	LEAQ (SI)(R9*4), SI
	DECQ DI
	JNZ  tile32
	VZEROUPPER
	RET

// kernF64AVX512 is kernF64 on the 32 ZMM registers: it takes the same
// operands and writes the same bits, eight rows (two row tiles) at a time
// against two adjacent 8-wide column panels. The second panel's B starts b2
// (> 0) elements after the first and its C, bias and residual 8 elements
// after; an odd last row tile runs alone. A depth step broadcasts each A
// element once into Z18 and loads two B vectors for 16 FMAs. Alpha sits in
// Z19, a non-nil bias row in Z20-Z21. C is written row by row through DX,
// and read only to accumulate. Every general register is taken during the
// depth loop, so the residual's row pointer is carried from one row block to
// the next in res's own argument slot. VZEROUPPER clears only Z0-Z15, so
// Z16-Z21 are zeroed before the return: left dirty, they slow the scalar SSE
// code that runs next (a naive float64 loop by 45 % on an AVX-512 Xeon).

// ROW2 accumulates the A element at addr against both B vectors (Z16, Z17).
#define ROW2(addr, acc0, acc1) \
	VBROADCASTSD addr, Z18 \
	VFMADD231PD Z16, Z18, acc0 \
	VFMADD231PD Z17, Z18, acc1

// OUT2 writes one C row of both panels (acc0, acc1): ×alpha, + C where AX
// (accum) is nonzero, + the bias where R14 (its address) is, + the residual
// row at (BX) where BX is (CX its stride in bytes); then it steps DX and BX
// to the next row.
#define OUT2(acc0, acc1, skipc, skipb, skipr) \
	VMULPD Z19, acc0, acc0 \
	VMULPD Z19, acc1, acc1 \
	TESTQ AX, AX \
	JZ   skipc \
	VADDPD (DX), acc0, acc0 \
	VADDPD 64(DX), acc1, acc1 \
skipc: \
	TESTQ R14, R14 \
	JZ   skipb \
	VADDPD Z20, acc0, acc0 \
	VADDPD Z21, acc1, acc1 \
skipb: \
	TESTQ BX, BX \
	JZ   skipr \
	VADDPD (BX), acc0, acc0 \
	VADDPD 64(BX), acc1, acc1 \
	ADDQ CX, BX \
skipr: \
	VMOVUPD acc0, (DX) \
	VMOVUPD acc1, 64(DX) \
	LEAQ (DX)(R8*1), DX

#define ZERO4(z0, z1, z2, z3) \
	VPXORQ z0, z0, z0 \
	VPXORQ z1, z1, z1 \
	VPXORQ z2, z2, z2 \
	VPXORQ z3, z3, z3

// ROWS starts a row block: AX at its first A row, R14 four rows further
// down, BX at B and CX counting the k depth steps.
#define ROWS \
	MOVQ SI, AX \
	LEAQ (SI)(R9*4), R14 \
	MOVQ b+32(FP), BX \
	MOVQ k+0(FP), CX

// STEP advances A and B one depth step and loops to label while steps remain.
#define STEP(label) \
	ADDQ R11, AX \
	ADDQ R11, R14 \
	ADDQ R12, BX \
	DECQ CX \
	JNZ  label

// func kernF64AVX512(k int, a *float64, ars, aps int, b *float64, bps, b2 int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int)
TEXT ·kernF64AVX512(SB), NOSPLIT, $0-120
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R9
	MOVQ aps+24(FP), R11
	MOVQ bps+40(FP), R12
	MOVQ b2+48(FP), R13
	MOVQ c+56(FP), DX
	MOVQ ldc+64(FP), R8
	MOVQ tiles+72(FP), DI
	SHLQ $3, R9
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, R8
	LEAQ (R9)(R9*2), R10
	VBROADCASTSD alpha+80(FP), Z19
	MOVQ bias+96(FP), AX
	TESTQ AX, AX
	JZ   two8
	VMOVUPD (AX), Z20
	VMOVUPD 64(AX), Z21

two8:
	CMPQ DI, $2
	JLT  two4
	ROWS
	ZERO4(Z0, Z1, Z2, Z3)
	ZERO4(Z4, Z5, Z6, Z7)
	ZERO4(Z8, Z9, Z10, Z11)
	ZERO4(Z12, Z13, Z14, Z15)
loop2x8:
	VMOVUPD (BX), Z16
	VMOVUPD (BX)(R13*1), Z17
	ROW2((AX), Z0, Z1)
	ROW2((AX)(R9*1), Z2, Z3)
	ROW2((AX)(R9*2), Z4, Z5)
	ROW2((AX)(R10*1), Z6, Z7)
	ROW2((R14), Z8, Z9)
	ROW2((R14)(R9*1), Z10, Z11)
	ROW2((R14)(R9*2), Z12, Z13)
	ROW2((R14)(R10*1), Z14, Z15)
	STEP(loop2x8)
	MOVBQZX accum+88(FP), AX
	MOVQ bias+96(FP), R14
	MOVQ res+104(FP), BX
	MOVQ rld+112(FP), CX
	SHLQ $3, CX
	OUT2(Z0, Z1, w2c0, w2b0, w2r0)
	OUT2(Z2, Z3, w2c1, w2b1, w2r1)
	OUT2(Z4, Z5, w2c2, w2b2, w2r2)
	OUT2(Z6, Z7, w2c3, w2b3, w2r3)
	OUT2(Z8, Z9, w2c4, w2b4, w2r4)
	OUT2(Z10, Z11, w2c5, w2b5, w2r5)
	OUT2(Z12, Z13, w2c6, w2b6, w2r6)
	OUT2(Z14, Z15, w2c7, w2b7, w2r7)
	MOVQ BX, res+104(FP)
	LEAQ (SI)(R9*8), SI
	SUBQ $2, DI
	JMP  two8

two4:
	TESTQ DI, DI
	JZ   done
	ROWS
	ZERO4(Z0, Z1, Z2, Z3)
	ZERO4(Z4, Z5, Z6, Z7)
loop2x4:
	VMOVUPD (BX), Z16
	VMOVUPD (BX)(R13*1), Z17
	ROW2((AX), Z0, Z1)
	ROW2((AX)(R9*1), Z2, Z3)
	ROW2((AX)(R9*2), Z4, Z5)
	ROW2((AX)(R10*1), Z6, Z7)
	STEP(loop2x4)
	MOVBQZX accum+88(FP), AX
	MOVQ bias+96(FP), R14
	MOVQ res+104(FP), BX
	MOVQ rld+112(FP), CX
	SHLQ $3, CX
	OUT2(Z0, Z1, t2c0, t2b0, t2r0)
	OUT2(Z2, Z3, t2c1, t2b1, t2r1)
	OUT2(Z4, Z5, t2c2, t2b2, t2r2)
	OUT2(Z6, Z7, t2c3, t2b3, t2r3)

done:
	ZERO4(Z16, Z17, Z18, Z19)
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VZEROUPPER
	RET

// func accumRowsAVX2(dst, src *float64, ld, rows, n int, w *float64)
//
// dst[j] += src[r*ld + j] (times w[r] first, a separate rounding, when w is
// non-nil) over rows r ascending, for j < n: sixteen columns at a time, then
// four, each column's adds in row order. rows >= 1, n a multiple of 4.
TEXT ·accumRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ n+32(FP), DX
	MOVQ w+40(FP), R9
	SHLQ $3, R8
cols16:
	CMPQ DX, $16
	JLT  cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ rows+24(FP), CX
	TESTQ BX, BX
	JNZ  scaled16
plain16:
	VADDPD (AX), Y0, Y0
	VADDPD 32(AX), Y1, Y1
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3
	ADDQ R8, AX
	DECQ CX
	JNZ  plain16
	JMP  store16
scaled16:
	VBROADCASTSD (BX), Y4
	VMULPD (AX), Y4, Y5
	VMULPD 32(AX), Y4, Y6
	VMULPD 64(AX), Y4, Y7
	VMULPD 96(AX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, BX
	ADDQ R8, AX
	DECQ CX
	JNZ  scaled16
store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, DX
	JMP  cols16
cols4:
	TESTQ DX, DX
	JZ   doneacc
	VMOVUPD (DI), Y0
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ rows+24(FP), CX
	TESTQ BX, BX
	JNZ  scaled4
plain4:
	VADDPD (AX), Y0, Y0
	ADDQ R8, AX
	DECQ CX
	JNZ  plain4
	JMP  store4
scaled4:
	VBROADCASTSD (BX), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, BX
	ADDQ R8, AX
	DECQ CX
	JNZ  scaled4
store4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, DX
	JMP  cols4
doneacc:
	VZEROUPPER
	RET

// PACKT4 loads four rows of four float64 (row pointers R8..R11) and
// transposes them into Y8..Y11: Yq = column q of the 4x4 block.
#define PACKT4 \
	VMOVUPD (R8), Y0 \
	VMOVUPD (R9), Y1 \
	VMOVUPD (R10), Y2 \
	VMOVUPD (R11), Y3 \
	VUNPCKLPD Y1, Y0, Y4 \
	VUNPCKHPD Y1, Y0, Y5 \
	VUNPCKLPD Y3, Y2, Y6 \
	VUNPCKHPD Y3, Y2, Y7 \
	VPERM2F128 $0x20, Y6, Y4, Y8 \
	VPERM2F128 $0x20, Y7, Y5, Y9 \
	VPERM2F128 $0x31, Y6, Y4, Y10 \
	VPERM2F128 $0x31, Y7, Y5, Y11 \
	ADDQ $32, R8 \
	ADDQ $32, R9 \
	ADDQ $32, R10 \
	ADDQ $32, R11

// PACKT4ROWS derives the row pointers R9..R11 from R8 and the row stride AX
// (elements) and splits k (CX) into CX = k/4 blocks and BX = k%4 tail.
#define PACKT4ROWS \
	SHLQ $3, AX \
	LEAQ (R8)(AX*1), R9 \
	LEAQ (R9)(AX*1), R10 \
	LEAQ (R10)(AX*1), R11 \
	MOVQ CX, BX \
	SHRQ $2, CX \
	ANDQ $3, BX

// func packT4F64(dst, src *float64, ld, k, stride int)
TEXT ·packT4F64(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), R8
	MOVQ ld+16(FP), AX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), DX
	PACKT4ROWS
	SHLQ $3, DX
	TESTQ CX, CX
	JZ   tail64
block64:
	PACKT4
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (DI)(DX*1)
	LEAQ (DI)(DX*2), DI
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, (DI)(DX*1)
	LEAQ (DI)(DX*2), DI
	DECQ CX
	JNZ  block64
tail64:
	TESTQ BX, BX
	JZ   done64
	VMOVSD (R8), X0
	VMOVSD (R9), X1
	VMOVSD (R10), X2
	VMOVSD (R11), X3
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ DX, DI
	DECQ BX
	JMP  tail64
done64:
	VZEROUPPER
	RET

// func packT4F32(dst *float32, src *float64, ld, k, stride int)
TEXT ·packT4F32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), R8
	MOVQ ld+16(FP), AX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), DX
	PACKT4ROWS
	SHLQ $2, DX
	TESTQ CX, CX
	JZ   tail32
block32:
	PACKT4
	VCVTPD2PSY Y8, X8
	VCVTPD2PSY Y9, X9
	VCVTPD2PSY Y10, X10
	VCVTPD2PSY Y11, X11
	VMOVUPS X8, (DI)
	VMOVUPS X9, (DI)(DX*1)
	LEAQ (DI)(DX*2), DI
	VMOVUPS X10, (DI)
	VMOVUPS X11, (DI)(DX*1)
	LEAQ (DI)(DX*2), DI
	DECQ CX
	JNZ  block32
tail32:
	TESTQ BX, BX
	JZ   done32t
	VMOVSD (R8), X0
	VMOVSD (R9), X1
	VMOVSD (R10), X2
	VMOVSD (R11), X3
	VCVTSD2SS X0, X0, X0
	VCVTSD2SS X1, X1, X1
	VCVTSD2SS X2, X2, X2
	VCVTSD2SS X3, X3, X3
	VMOVSS X0, (DI)
	VMOVSS X1, 4(DI)
	VMOVSS X2, 8(DI)
	VMOVSS X3, 12(DI)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ DX, DI
	DECQ BX
	JMP  tail32
done32t:
	VZEROUPPER
	RET

// func packC4F64(dst, src *float64, ld, k, n, stride int)
TEXT ·packC4F64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), AX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), DX
	MOVQ stride+40(FP), R9
	SHLQ $3, AX
	SHLQ $3, R9
	SHRQ $2, DX
rowc64:
	MOVQ SI, R8
	MOVQ DI, R10
	MOVQ DX, BX
chunkc64:
	VMOVUPD (R8), Y0
	VMOVUPD Y0, (R10)
	ADDQ $32, R8
	ADDQ $32, R10
	DECQ BX
	JNZ  chunkc64
	ADDQ AX, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  rowc64
	VZEROUPPER
	RET

// func packC4F32(dst *float32, src *float64, ld, k, n, stride int)
TEXT ·packC4F32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), AX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), DX
	MOVQ stride+40(FP), R9
	SHLQ $3, AX
	SHLQ $2, R9
	SHRQ $2, DX
rowc32:
	MOVQ SI, R8
	MOVQ DI, R10
	MOVQ DX, BX
chunkc32:
	VCVTPD2PSY (R8), X0
	VMOVUPS X0, (R10)
	ADDQ $32, R8
	ADDQ $16, R10
	DECQ BX
	JNZ  chunkc32
	ADDQ AX, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  rowc32
	VZEROUPPER
	RET

// func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvRaw() (eax, edx uint32)
TEXT ·xgetbvRaw(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
