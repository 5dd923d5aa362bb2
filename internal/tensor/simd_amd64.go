//go:build amd64

package tensor

// SIMD kernel bindings for amd64. The blocked driver in gemm.go and the
// elementwise entry points in exp.go dispatch to these AVX2+FMA kernels when
// the CPU supports them (and the OS has enabled YMM state), and to their
// pure-Go twins otherwise; float64 products run kernF64AVX512 instead of
// kernF64 where AVX-512F and its register state are enabled too. Kernel
// availability is probed once at init via CPUID/XGETBV so no external
// cpu-feature dependency is needed.

// kernF64 and kernF32 compute tiles stacked 4 x nr register tiles (nr = 8
// and 16) of one column panel from operands addressed by stride, adding the
// epilogue's bias row and residual rows (rld apart; nil skips each) as they
// store; see simd_amd64.s for the contract.
//
//go:noescape
func kernF64(k int, a *float64, ars, aps int, b *float64, bps int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int)

//go:noescape
func kernF32(k int, a *float32, ars, aps int, b *float32, bps int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int)

// kernF64AVX512 is kernF64 over eight rows and two adjacent 8-wide column
// panels per step, the second b2 (> 0) elements after the first in B and 8
// after it in C, the bias and the residual.
//
//go:noescape
func kernF64AVX512(k int, a *float64, ars, aps int, b *float64, bps, b2 int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int)

// accumRowsAVX2 adds rows (>= 1) rows of src, ld apart, to dst[:n] (n a
// multiple of 4), each scaled by w[r] first when w is non-nil; see
// AccumRows.
//
//go:noescape
func accumRowsAVX2(dst, src *float64, ld, rows, n int, w *float64)

// packT4F64 and packT4F32 transpose four rows of k float64 values, ld
// apart, into a packed panel whose groups are stride elements apart:
// dst[p*stride+r] = src[r*ld+p] for r < 4, p < k; packT4F32 narrows to
// float32 on the way.
//
//go:noescape
func packT4F64(dst, src *float64, ld, k, stride int)

//go:noescape
func packT4F32(dst *float32, src *float64, ld, k, stride int)

// packC4F64 and packC4F32 copy k rows of n float64 values (n a multiple of
// 4), ld apart, into a packed panel whose groups are stride elements apart:
// dst[p*stride+x] = src[p*ld+x] for x < n, p < k; packC4F32 narrows to
// float32 on the way.
//
//go:noescape
func packC4F64(dst, src *float64, ld, k, n, stride int)

//go:noescape
func packC4F32(dst *float32, src *float64, ld, k, n, stride int)

// expAVX2 computes dst[i] = e^src[i] for i < n (n >= 1); dst may be src.
//
//go:noescape
func expAVX2(dst, src *float64, n int)

// geluAVX2 and geluGradAVX2 are GELU and GELUBackward over n >= 1 elements
// (exp.go has the contract and the Go twins).
//
//go:noescape
func geluAVX2(dst, x *float64, n int)

//go:noescape
func geluGradAVX2(dst, x, grad *float64, n int)

// adamwAVX2 is AdamW's update over n >= 1 elements, b1c = 1-b1 and
// b2c = 1-b2 (adamw.go has the contract and the Go twin).
//
//go:noescape
func adamwAVX2(w, m, v, grad *float64, n int, b1, b1c, b2, b2c, c1, c2, eps, wd, lr float64)

// softmaxRowsAVX2 computes the softmax of each of rows (>= 1) contiguous
// n-long (n >= 1) rows of src into dst; dst may be src.
//
//go:noescape
func softmaxRowsAVX2(dst, src *float64, rows, n int)

// chainAVX2, softmaxPoolAVX2 and poolBwdAVX2 are the assembly spelling of
// the pooled attention pass (attnpool.go has the Go twins and the contract):
// chainAVX2 computes c[r*ldc+x] = alpha*chain_p a[r*ars+p*aps]*b[p*ldb+x]
// (plus c with accum) for r < rows, x < width (width a multiple of 4, depth
// >= 1), four columns at a time: kernF64's arithmetic where its whole 4 x 8
// tiles do not fit; softmaxPoolAVX2 one head's softmax, pooled map and pooled context;
// poolBwdAVX2 one head's dv, dpbar and score gradient (Dh a multiple of 4).
//
//go:noescape
func chainAVX2(a *float64, ars, aps int, b *float64, ldb int, c *float64, ldc, rows, depth, width int, alpha float64, accum bool)

//go:noescape
func softmaxPoolAVX2(s *float64, sld int, p *float64, pld, tq, tk int, pbar, v *float64, vld, dh int, cbar, rowInv *float64, inv float64)

//go:noescape
func poolBwdAVX2(p *float64, pld int, pbar, dc, v *float64, vld int, dv, ds *float64, dsld int, dpb, dot, zero *float64, tq, tk, dh int, inv float64)

func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvRaw() (eax, edx uint32)

// useSIMD reports whether the AVX2+FMA kernels are usable on this machine,
// useAVX512 whether float64 products run kernF64AVX512 too. Tests may clear
// both to force the pure-Go twins, or useAVX512 alone to force kernF64.
var useSIMD, useAVX512 = detectKernels()

func detectKernels() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, c1, _ := cpuidRaw(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false, false
	}
	// XCR0 must have XMM (bit 1) and YMM (bit 2) state enabled by the OS,
	// and for AVX-512 the opmask, ZMM_Hi256 and Hi16_ZMM state (bits 5-7).
	xcr0, _ := xgetbvRaw()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, b7, _, _ := cpuidRaw(7, 0)
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	avx2 = b7&avx2Bit != 0
	return avx2, avx2 && b7&avx512fBit != 0 && xcr0&0xe0 == 0xe0
}
