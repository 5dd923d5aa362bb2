// The assembly spellings of the exponential (expGo in exp.go is its Go
// spelling, bit for bit) and the lane helpers around them, shared by every
// assembly file that needs them: the constant table, EXP2 (four-lane AVX2
// vectors, two at a time), EXPZ (eight-lane AVX-512F vectors, the same
// instructions per lane), the tail masks, the tail opmask and HREDUCE.
// Including files get their own file-local copies of the two tables; the
// arithmetic exists once, here.

#define Q4(off, v) \
	DATA expk<>+off+0(SB)/8, v \
	DATA expk<>+off+8(SB)/8, v \
	DATA expk<>+off+16(SB)/8, v \
	DATA expk<>+off+24(SB)/8, v

Q4(0x000, $0xc086200000000000) // -708
Q4(0x020, $0x4086280000000000) // 709
Q4(0x040, $0x3ff71547652b82fe) // log2(e)
Q4(0x060, $0x3fe62e42fee00000) // ln2Hi
Q4(0x080, $0x3dea39ef35793c76) // ln2Lo
Q4(0x0a0, $0x4338000000000000) // 1.5 * 2^52
Q4(0x0c0, $0x7ff0000000000000) // +Inf
Q4(0x0e0, $0x3ff0000000000000) // 1 = 1/0! = 1/1!
Q4(0x100, $0x3fe0000000000000) // 1/2!
Q4(0x120, $0x3fc5555555555555) // 1/3!
Q4(0x140, $0x3fa5555555555555) // 1/4!
Q4(0x160, $0x3f81111111111111) // 1/5!
Q4(0x180, $0x3f56c16c16c16c17) // 1/6!
Q4(0x1a0, $0x3f2a01a01a01a01a) // 1/7!
Q4(0x1c0, $0x3efa01a01a01a01a) // 1/8!
Q4(0x1e0, $0x3ec71de3a556c734) // 1/9!
Q4(0x200, $0x3e927e4fb7789f5c) // 1/10!
Q4(0x220, $0x3e5ae64567f544e4) // 1/11!
Q4(0x240, $0x3e21eed8eff8d898) // 1/12!
Q4(0x260, $0x3de6124613a86d09) // 1/13!
GLOBL expk<>(SB), RODATA|NOPTR, $0x280

#define LO    expk<>+0x000(SB)
#define HI    expk<>+0x020(SB)
#define LOG2E expk<>+0x040(SB)
#define LN2HI expk<>+0x060(SB)
#define LN2LO expk<>+0x080(SB)
#define MAGIC expk<>+0x0a0(SB)
#define INF   expk<>+0x0c0(SB)
#define ONE   expk<>+0x0e0(SB)
#define C(n)  expk<>+0x0c0+n*0x20(SB) // 1/n!, n = 1..13

// tailMask + 8*(8-r) holds two lane masks, 32 bytes apart, that together have
// the first r (1..7) of eight lanes set.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
DATA tailMask<>+64(SB)/8, $0
DATA tailMask<>+72(SB)/8, $0
DATA tailMask<>+80(SB)/8, $0
DATA tailMask<>+88(SB)/8, $0
DATA tailMask<>+96(SB)/8, $0
DATA tailMask<>+104(SB)/8, $0
DATA tailMask<>+112(SB)/8, $0
DATA tailMask<>+120(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// EXP2 computes P = exp(X) on two vectors of four lanes, a and b, their
// instructions interleaved because one vector's dependency chain alone leaves
// the FMA ports idle; K and R are scratch, X is kept. Per vector: clamp,
// k = roundeven(x*log2e), r = x - k*ln2 in two FMAs, degree-13 Horner, k added
// into the exponent field (the low bits of k + 1.5*2^52 are k as an integer),
// then the out-of-range lanes: +0 below LO; above HI, and for NaN, x + Inf.
// The clamps take the bound when x is NaN, so no NaN runs through the
// polynomial.
#define EXP2(Xa, Ka, Ra, Pa, Xb, Kb, Rb, Pb) \
	VMAXPD LO, Xa, Ra \
	VMAXPD LO, Xb, Rb \
	VMINPD HI, Ra, Ra \
	VMINPD HI, Rb, Rb \
	VMULPD LOG2E, Ra, Ka \
	VMULPD LOG2E, Rb, Kb \
	VROUNDPD $8, Ka, Ka \
	VROUNDPD $8, Kb, Kb \
	VFNMADD231PD LN2HI, Ka, Ra \
	VFNMADD231PD LN2HI, Kb, Rb \
	VFNMADD231PD LN2LO, Ka, Ra \
	VFNMADD231PD LN2LO, Kb, Rb \
	VMOVUPD C(13), Pa \
	VMOVUPD C(13), Pb \
	VFMADD213PD C(12), Ra, Pa \
	VFMADD213PD C(12), Rb, Pb \
	VFMADD213PD C(11), Ra, Pa \
	VFMADD213PD C(11), Rb, Pb \
	VFMADD213PD C(10), Ra, Pa \
	VFMADD213PD C(10), Rb, Pb \
	VFMADD213PD C(9), Ra, Pa \
	VFMADD213PD C(9), Rb, Pb \
	VFMADD213PD C(8), Ra, Pa \
	VFMADD213PD C(8), Rb, Pb \
	VFMADD213PD C(7), Ra, Pa \
	VFMADD213PD C(7), Rb, Pb \
	VFMADD213PD C(6), Ra, Pa \
	VFMADD213PD C(6), Rb, Pb \
	VFMADD213PD C(5), Ra, Pa \
	VFMADD213PD C(5), Rb, Pb \
	VFMADD213PD C(4), Ra, Pa \
	VFMADD213PD C(4), Rb, Pb \
	VFMADD213PD C(3), Ra, Pa \
	VFMADD213PD C(3), Rb, Pb \
	VFMADD213PD C(2), Ra, Pa \
	VFMADD213PD C(2), Rb, Pb \
	VFMADD213PD ONE, Ra, Pa \
	VFMADD213PD ONE, Rb, Pb \
	VFMADD213PD ONE, Ra, Pa \
	VFMADD213PD ONE, Rb, Pb \
	VADDPD MAGIC, Ka, Ka \
	VADDPD MAGIC, Kb, Kb \
	VPSLLQ $52, Ka, Ka \
	VPSLLQ $52, Kb, Kb \
	VPADDQ Ka, Pa, Pa \
	VPADDQ Kb, Pb, Pb \
	VCMPPD $0x11, LO, Xa, Ka \
	VCMPPD $0x11, LO, Xb, Kb \
	VANDNPD Pa, Ka, Pa \
	VANDNPD Pb, Kb, Pb \
	VCMPPD $0x16, HI, Xa, Ka \
	VCMPPD $0x16, HI, Xb, Kb \
	VADDPD INF, Xa, Ra \
	VADDPD INF, Xb, Rb \
	VBLENDVPD Ka, Ra, Pa, Pa \
	VBLENDVPD Kb, Rb, Pb, Pb

// EXPZ is EXP2 on one vector of eight lanes, P = exp(X), with every lane
// running EXP2's instructions: the constants come by embedded broadcast from
// the same table, VRNDSCALEPD $8 rounds as VROUNDPD $8 does, and the
// out-of-range lanes take a mask KM (scratch) in place of a blend: +0 below
// LO by a zero-masking move on !(x < LO), which keeps NaN lanes as VANDNPD
// did, then x + Inf, merge-masked, above HI and for NaN. K and R are
// scratch, X is kept. AVX-512F only.
#define EXPZ(X, K, R, P, KM) \
	VMAXPD.BCST LO, X, R \
	VMINPD.BCST HI, R, R \
	VMULPD.BCST LOG2E, R, K \
	VRNDSCALEPD $8, K, K \
	VFNMADD231PD.BCST LN2HI, K, R \
	VFNMADD231PD.BCST LN2LO, K, R \
	VBROADCASTSD C(13), P \
	VFMADD213PD.BCST C(12), R, P \
	VFMADD213PD.BCST C(11), R, P \
	VFMADD213PD.BCST C(10), R, P \
	VFMADD213PD.BCST C(9), R, P \
	VFMADD213PD.BCST C(8), R, P \
	VFMADD213PD.BCST C(7), R, P \
	VFMADD213PD.BCST C(6), R, P \
	VFMADD213PD.BCST C(5), R, P \
	VFMADD213PD.BCST C(4), R, P \
	VFMADD213PD.BCST C(3), R, P \
	VFMADD213PD.BCST C(2), R, P \
	VFMADD213PD.BCST ONE, R, P \
	VFMADD213PD.BCST ONE, R, P \
	VADDPD.BCST MAGIC, K, K \
	VPSLLQ $52, K, K \
	VPADDQ K, P, P \
	VCMPPD.BCST $0x15, LO, X, KM \
	VMOVAPD.Z P, KM, P \
	VCMPPD.BCST $0x16, HI, X, KM \
	VADDPD.BCST INF, X, KM, P

// TAILMASKS loads the lane masks of the last rem (1..7) elements into Y14
// (lanes 0-3) and Y15 (lanes 4-7); it uses AX and BX.
#define TAILMASKS(rem) \
	LEAQ tailMask<>+64(SB), AX \
	MOVQ rem, BX \
	SHLQ $3, BX \
	SUBQ BX, AX \
	VMOVDQU (AX), Y14 \
	VMOVDQU 32(AX), Y15

// TAILK sets opmask K to the first rem (1..7) of eight lanes; it uses BX.
#define TAILK(rem, K) \
	XORL  BX, BX \
	BTSL  rem, BX \
	DECL  BX \
	KMOVW BX, K

// HREDUCE folds the four lanes of Y (low half X) into its low lane with OP:
// first the upper half onto the lower, (l0 OP l2, l1 OP l3), then those two.
// TX is scratch.
#define HREDUCE(OPPD, OPSD, Y, X, TX) \
	VEXTRACTF128 $1, Y, TX \
	OPPD TX, X, X \
	VPERMILPD $1, X, TX \
	OPSD TX, X, X
