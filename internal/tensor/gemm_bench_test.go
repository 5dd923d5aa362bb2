package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks: `go test -bench 'GEMM|Attention|Softmax' ./internal/tensor`
// is the smoke run wired into the bench CI job; `make bench-compute` writes the committed
// BENCH_compute.json from the same kernels via internal/experiments.

func benchSizes() []int { return []int{64, 128, 256, 512} }

func BenchmarkGEMM(b *testing.B) {
	for _, s := range benchSizes() {
		a := New(s, s)
		bb := New(s, s)
		fill(a, 1.0)
		fill(bb, 2.0)
		dst := New(s, s)
		flops := 2 * int64(s) * int64(s) * int64(s)
		b.Run(fmt.Sprintf("blocked-f64/%d", s), func(b *testing.B) {
			b.SetBytes(flops) // report "MB/s" as 2mnk bytes == FLOP/s*2e-6
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bb)
			}
		})
		b.Run(fmt.Sprintf("blocked-f32/%d", s), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				MatMulF32Into(dst, a, bb)
			}
		})
		pb := PackB32(bb)
		b.Run(fmt.Sprintf("packed-f32/%d", s), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				AffinePackedF32Into(dst.Data, s, a, pb, Epilogue{})
			}
		})
	}
}

func BenchmarkGEMMTransposed(b *testing.B) {
	const s = 256
	a := New(s, s)
	bb := New(s, s)
	fill(a, 1.0)
	fill(bb, 2.0)
	dst := New(s, s)
	flops := 2 * int64(s) * int64(s) * int64(s)
	b.Run("MatMulTInto", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			MatMulTInto(dst, a, bb)
		}
	})
	b.Run("TMatMulInto", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			TMatMulInto(dst, a, bb)
		}
	})
	b.Run("TMatMulAccInto", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			TMatMulAccInto(dst, a, bb)
		}
	})
}

func BenchmarkAttentionShapedBatched(b *testing.B) {
	// The score product Q @ K^T read per head out of [N,T,H*Dh] projection
	// outputs: the ViT blocks of the serving model, and the channel
	// aggregation of the hyperspectral model (B*T = 128 group maps of g = 16
	// channel tokens, 4 heads of 8: 512 products of 16x8x16).
	for _, sh := range []struct {
		name        string
		n, h, t, dh int
	}{{"vit", 4, 4, 64, 8}, {"channel-agg", 128, 4, 16, 8}} {
		q := New(sh.n, sh.t, sh.h*sh.dh)
		k := New(sh.n, sh.t, sh.h*sh.dh)
		fill(q, 1.0)
		fill(k, 2.0)
		scores := MatView(New(sh.n, sh.h, sh.t, sh.t))
		qv, kv := HeadView(q, sh.h), HeadView(k, sh.h)
		b.Run(sh.name+"/BatchedMatMulTInto", func(b *testing.B) {
			b.SetBytes(2 * int64(sh.n*sh.h*sh.t*sh.t*sh.dh))
			for i := 0; i < b.N; i++ {
				BatchedMatMulTInto(scores, qv, kv, 0.5)
			}
		})
		b.Run(sh.name+"/BatchedMatMulTF32Into", func(b *testing.B) {
			b.SetBytes(2 * int64(sh.n*sh.h*sh.t*sh.t*sh.dh))
			for i := 0; i < b.N; i++ {
				BatchedMatMulTF32Into(scores, qv, kv, 0.5)
			}
		})
	}
}
