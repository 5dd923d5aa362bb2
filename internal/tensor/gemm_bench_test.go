package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Kernel benchmarks: `go test -run '^$' -bench 'GEMM|ProductCallers|Softmax'
// ./internal/tensor` times the products and the softmax at the shapes the
// workloads issue; the bench CI job runs every benchmark once as a smoke
// test. None is gated: they are read by alternating the test binaries of two
// commits (`go test -c`, `-test.cpu 1`) around a change to a kernel.

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

// gemmShape is one product a benchmark workload issues: batch products of
// m x k x n through the named entry point. Batched shapes are per-head
// products read in place out of [N,T,H*Dh] projection layouts, as
// nn.AttentionCore issues them, or, with group > 0, one product per channel
// of a group of that many, as the folded first levels run them (the
// channels' projections the columns of [N, group, n]); with shared, every
// member reads one right operand (tensor.RepeatView), as the linear fold's
// P^T d does. epilogue is what the kernel adds as it stores, where the layer
// has it add something: "bias" (nn.Linear, and each channel's folded bias).
type gemmShape struct {
	name, op       string
	batch, m, k, n int
	group          int
	shared         bool
	epilogue       string
}

// gemmShapes lists the products of the benchmark workloads: the per-head
// attention products of a ViT block (T = 64), forward and the
// transposed-map product of its backward, the first MLP layer of a
// wx_tp2dp2 block on one tensor-parallel rank (128 tokens, E = 64, half of
// the 256 hidden columns), the float32 twins serving runs, and the cross
// stage's folded first level on a masked hsi step, whose partition of 16
// channels runs on the 64 visible locations of its 128 (P² = 4, E = 32):
// the fold of the group's tokenizer weights and u rows into one projection
// ([80 x 32] @ [32 x 32]), the 4-deep product writing Q, K or V into the
// group's [N, 16, E] from the pixels — twice a step, in the forward and
// again in the backward, which forms them anew — and the backward's P^T dQ,
// the projection's weight gradient wu^T [G; s] and the tokenizer's
// [G; s] W^T; and the linear stage's folded backward at a wx_tp2dp2 rank's
// shape (groups of 20 channels, 128 locations, P² = 4, E = 64): P_c^T d
// against the one output gradient d. Neither stage forms a patch gradient.
var gemmShapes = []gemmShape{
	{name: "vit_scores", op: "BatchedMatMulTInto", batch: 8, m: 64, k: 8, n: 64},
	{name: "vit_context", op: "BatchedMatMulInto", batch: 8, m: 64, k: 64, n: 8},
	{name: "vit_bwd_dv", op: "BatchedTMatMulInto", batch: 8, m: 64, k: 64, n: 8},
	{name: "tp_mlp_fc1", op: "MatMulInto", batch: 1, m: 128, k: 64, n: 128},
	{name: "vit_scores_f32", op: "BatchedMatMulTF32Into", batch: 8, m: 64, k: 8, n: 64},
	{name: "vit_context_f32", op: "BatchedMatMulF32Into", batch: 8, m: 64, k: 64, n: 8},
	{name: "fold", op: "MatMulInto", batch: 1, m: 80, k: 32, n: 32},
	{name: "fold_qkv", op: "BatchedAffineInto", batch: 16, m: 64, k: 4, n: 32, group: 16, epilogue: "bias"},
	{name: "fold_bwd_g", op: "BatchedTMatMulSplitInto", batch: 16, m: 4, k: 64, n: 32, group: 16},
	{name: "fold_bwd_dw", op: "TMatMulAccInto", batch: 1, m: 32, k: 80, n: 32},
	{name: "fold_bwd_dwtok", op: "MatMulTInto", batch: 1, m: 80, k: 32, n: 32},
	{name: "lin_bwd_g", op: "BatchedTMatMulSplitInto", batch: 20, m: 4, k: 128, n: 64, group: 20, shared: true},
}

// shapeStep builds the operands of one shape and returns the call that runs
// it. Batched shapes without a group are per-head products: batch =
// samples x 4 heads, operands and the context destination are head views of
// [samples, T, 4*Dh] tensors, score-shaped operands are contiguous
// [samples, 4, Tq, Tk]. With a group, one member per channel: the pixels
// [g, N, P²] and the folded weights [g, P², E] contiguous, Q and dQ the
// columns of [N, g, E], a shared operand one [k, n] matrix.
func shapeStep(sh gemmShape) func() {
	const heads = 4
	rng := NewRNG(int64(8000 + sh.m + sh.k + sh.n))
	if sh.batch == 1 {
		switch sh.op {
		case "MatMulInto":
			dst, a, b := New(sh.m, sh.n), Randn(rng, sh.m, sh.k), Randn(rng, sh.k, sh.n)
			return func() { MatMulInto(dst, a, b) }
		case "MatMulTInto":
			dst, a, b := New(sh.m, sh.n), Randn(rng, sh.m, sh.k), Randn(rng, sh.n, sh.k)
			return func() { MatMulTInto(dst, a, b) }
		case "TMatMulAccInto":
			dst, a, b := New(sh.m, sh.n), Randn(rng, sh.k, sh.m), Randn(rng, sh.k, sh.n)
			return func() { TMatMulAccInto(dst, a, b) }
		}
	}
	if sh.group > 0 {
		cols := func(rows, n int) View { return HeadView(Randn(rng, 1, rows, sh.group*n), sh.group) }
		mats := func(rows, n int) View { return MatView(Randn(rng, sh.group, rows, n)) }
		switch sh.op {
		case "BatchedAffineInto": // Q_c [N,E] = P_c [N,P²] @ Ŵ_c [P²,E] + β̂_c
			dst, a, b, bias := cols(sh.m, sh.n), mats(sh.m, sh.k), mats(sh.k, sh.n), Randn(rng, sh.group, sh.n).Data
			return func() { BatchedAffineInto(dst, a, b, 1, bias) }
		case "BatchedTMatMulSplitInto": // G_c [P²,E] = P_c [N,P²]^T @ dQ_c [N,E], or @ d [N,E] shared
			dst, a, b := mats(sh.m, sh.n), mats(sh.k, sh.m), cols(sh.k, sh.n)
			if sh.shared {
				b = RepeatView(Randn(rng, sh.k, sh.n), sh.group)
			}
			return func() { BatchedTMatMulSplitInto(dst, a, b, 1, nil) }
		}
		panic(fmt.Sprintf("tensor: no runner for shape %+v", sh))
	}
	samples := sh.batch / heads
	// head builds a [samples, rows, heads*cols] tensor and its per-head view;
	// maps a contiguous [samples, heads, rows, cols] one.
	head := func(rows, cols int) View {
		return HeadView(Randn(rng, samples, rows, heads*cols), heads)
	}
	maps := func(rows, cols int) View {
		return MatView(Randn(rng, samples, heads, rows, cols))
	}
	switch sh.op {
	case "BatchedMatMulTInto": // scores [Tq,Tk] = q [Tq,Dh] @ k[Tk,Dh]^T
		dst, a, b := maps(sh.m, sh.n), head(sh.m, sh.k), head(sh.n, sh.k)
		return func() { BatchedMatMulTInto(dst, a, b, 0.5) }
	case "BatchedMatMulTF32Into":
		dst, a, b := maps(sh.m, sh.n), head(sh.m, sh.k), head(sh.n, sh.k)
		return func() { BatchedMatMulTF32Into(dst, a, b, 0.5) }
	case "BatchedMatMulInto": // context [Tq,Dh] = attn [Tq,Tk] @ v [Tk,Dh]
		dst, a, b := head(sh.m, sh.n), maps(sh.m, sh.k), head(sh.k, sh.n)
		return func() { BatchedMatMulInto(dst, a, b, 1) }
	case "BatchedMatMulF32Into":
		dst, a, b := head(sh.m, sh.n), maps(sh.m, sh.k), head(sh.k, sh.n)
		return func() { BatchedMatMulF32Into(dst, a, b, 1) }
	case "BatchedTMatMulInto": // dv [Tk,Dh] = attn [Tq,Tk]^T @ dctx [Tq,Dh]
		dst, a, b := head(sh.m, sh.n), maps(sh.k, sh.m), head(sh.k, sh.n)
		return func() { BatchedTMatMulInto(dst, a, b, 1) }
	}
	panic(fmt.Sprintf("tensor: no runner for shape %+v", sh))
}

// BenchmarkGEMMShapes times every product of gemmShapes under the kernel
// tier the host picked. MB/s reads as 2*batch*m*k*n bytes per call:
// GFLOP/s = MB/s / 1000.
func BenchmarkGEMMShapes(b *testing.B) {
	for _, sh := range gemmShapes {
		step := shapeStep(sh)
		step() // warm the panel pool
		b.Run(sh.name, func(b *testing.B) {
			b.SetBytes(2 * int64(sh.batch*sh.m*sh.k*sh.n))
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkProductCallers times the two column-parallel products a
// wx_tp2dp2 rank issues per block — its half of an E x E projection and of
// the E x 4E MLP layer (128 tokens, E = 64, TP 2) — issued by one caller and
// by two at once, each on its own operands, under GOMAXPROCS 1 and 2: alone
// on one processor is the kernel's own rate, alone on two the rows split,
// and two callers on two should each keep a processor to itself, the regime
// the ranks of a mesh run in. Each caller runs b.N products, so ns/op and
// MB/s are per caller (GFLOP/s = MB/s / 1000).
func BenchmarkProductCallers(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, n int
	}{{"tp_proj", 128, 64, 32}, {"tp_mlp_fc1", 128, 64, 128}} {
		for _, run := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
			procs, callers := run[0], run[1]
			b.Run(fmt.Sprintf("%s/procs=%d/callers=%d", sh.name, procs, callers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				steps := make([]func(), callers)
				for c := range steps {
					rng := NewRNG(int64(6000 + c))
					dst, a, w := New(sh.m, sh.n), Randn(rng, sh.m, sh.k), Randn(rng, sh.k, sh.n)
					steps[c] = func() { MatMulInto(dst, a, w) }
					steps[c]() // warm the panel pool
				}
				b.SetBytes(2 * int64(sh.m*sh.k*sh.n))
				b.ResetTimer()
				var wg sync.WaitGroup
				for _, step := range steps {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							step()
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
