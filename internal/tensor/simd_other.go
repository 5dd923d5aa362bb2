//go:build !amd64

package tensor

// Non-amd64 builds always use the pure-Go kernels in gemm.go and exp.go.
var useSIMD, useAVX512 = false, false

func kernF64(k int, a *float64, ars, aps int, b *float64, bps int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int) {
	panic("tensor: SIMD kernel unavailable")
}

func kernF64AVX512(k int, a *float64, ars, aps int, b *float64, bps, b2 int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int) {
	panic("tensor: SIMD kernel unavailable")
}

func kernF32(k int, a *float32, ars, aps int, b *float32, bps int, c *float64, ldc, tiles int, alpha float64, accum bool, bias, res *float64, rld int) {
	panic("tensor: SIMD kernel unavailable")
}

func accumRowsAVX2(dst, src *float64, ld, rows, n int, w *float64) {
	panic("tensor: SIMD kernel unavailable")
}

func patchAccumF64(pix *float64, ldp, p, ph, pw int, w *float64, e int, out *float64, ldo int, bias, id *float64, scale float64) {
	panic("tensor: SIMD kernel unavailable")
}

func patchAccumF32(pix *float64, ldp, p, ph, pw int, w *float32, wps, e int, out *float64, ldo int, bias, id *float64, scale float64) {
	panic("tensor: SIMD kernel unavailable")
}

func packT4F64(dst, src *float64, ld, k, stride int) { panic("tensor: SIMD kernel unavailable") }

func packT4F32(dst *float32, src *float64, ld, k, stride int) {
	panic("tensor: SIMD kernel unavailable")
}

func packC4F32(dst *float32, src *float64, ld, k, n, stride int) {
	panic("tensor: SIMD kernel unavailable")
}

func expAVX2(dst, src *float64, n int) { panic("tensor: SIMD kernel unavailable") }

func expAVX512(dst, src *float64, n int) { panic("tensor: SIMD kernel unavailable") }

func geluAVX2(dst, x *float64, n int) { panic("tensor: SIMD kernel unavailable") }

func geluAVX512(dst, x *float64, n int) { panic("tensor: SIMD kernel unavailable") }

func geluGradAVX2(dst, x, grad *float64, n int) { panic("tensor: SIMD kernel unavailable") }

func adamwAVX2(w, m, v, grad *float64, n int, b1, b1c, b2, b2c, c1, c2, eps, wd, lr float64) {
	panic("tensor: SIMD kernel unavailable")
}

func softmaxRowsAVX2(dst, src *float64, rows, n int) { panic("tensor: SIMD kernel unavailable") }

func softmaxRowsAVX512(dst, src *float64, rows, n int) { panic("tensor: SIMD kernel unavailable") }

func softmaxPoolAVX2(s *float64, sld int, p *float64, pld, tq, tk int, pbar, v *float64, vld, dh int, cbar, rowInv *float64, inv float64, wide bool) {
	panic("tensor: SIMD kernel unavailable")
}

func poolBwdAVX2(p *float64, pld int, pbar, dc, v *float64, vld int, dv, ds *float64, dsld int, dpb, dot, zero *float64, tq, tk, dh int, inv float64) {
	panic("tensor: SIMD kernel unavailable")
}
