package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// splitHeads copies x [B,T,H*Dh] into a contiguous [B,H,T,Dh] tensor and
// mergeHeads inverts it: the permutation copies the attention layers made
// around every product before the kernels read heads in place. They survive
// here as the reference the strided core is pinned against.
func splitHeads(x *tensor.Tensor, heads int) *tensor.Tensor {
	b, t, e := x.Shape[0], x.Shape[1], x.Shape[2]
	dh := e / heads
	out := tensor.New(b, heads, t, dh)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			for h := 0; h < heads; h++ {
				copy(out.Data[((bi*heads+h)*t+ti)*dh:][:dh], x.Data[(bi*t+ti)*e+h*dh:][:dh])
			}
		}
	}
	return out
}

func mergeHeads(x *tensor.Tensor) *tensor.Tensor {
	b, h, t, dh := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(b, t, h*dh)
	for bi := 0; bi < b; bi++ {
		for hi := 0; hi < h; hi++ {
			for ti := 0; ti < t; ti++ {
				copy(out.Data[(bi*t+ti)*h*dh+hi*dh:][:dh], x.Data[((bi*h+hi)*t+ti)*dh:][:dh])
			}
		}
	}
	return out
}

// batched runs a batched product over contiguous tensors into a fresh one.
func batched(fn func(dst, a, b tensor.View, alpha float64), a, b *tensor.Tensor, m, n int) *tensor.Tensor {
	out := tensor.New(a.Shape[0], a.Shape[1], m, n)
	fn(tensor.MatView(out), tensor.MatView(a), tensor.MatView(b), 1)
	return out
}

// splitMergeAttention is the split/scale/softmax/merge formulation of the
// attention product and its backward pass, on contiguous head tensors.
func splitMergeAttention(q, k, v, dctx *tensor.Tensor, heads int) (ctx, dq, dk, dv *tensor.Tensor) {
	scale := 1 / math.Sqrt(float64(q.Shape[2]/heads))
	tq, tk, dh := q.Shape[1], k.Shape[1], q.Shape[2]/heads
	qh, kh, vh := splitHeads(q, heads), splitHeads(k, heads), splitHeads(v, heads)
	scores := batched(tensor.BatchedMatMulTInto, qh, kh, tq, tk)
	tensor.ScaleInPlace(scores, scale)
	attn := tensor.SoftmaxLastDim(scores)
	ctx = mergeHeads(batched(tensor.BatchedMatMulInto, attn, vh, tq, dh))

	dch := splitHeads(dctx, heads)
	dA := batched(tensor.BatchedMatMulTInto, dch, vh, tq, tk)
	dvh := batched(tensor.BatchedTMatMulInto, attn, dch, tk, dh)
	dS := tensor.SoftmaxBackwardLastDim(attn, dA)
	tensor.ScaleInPlace(dS, scale)
	dqh := batched(tensor.BatchedMatMulInto, dS, kh, tq, dh)
	dkh := batched(tensor.BatchedTMatMulInto, dS, qh, tk, dh)
	return ctx, mergeHeads(dqh), mergeHeads(dkh), mergeHeads(dvh)
}

// TestAttentionCoreMatchesSplitMerge pins the strided core — heads read in
// place, scale folded into the products — against the split/merge
// formulation: output and all three gradients to 1e-12, at the channel
// aggregation shape (g = 16 tokens, Dh = 8), a ViT shape and a
// cross-attention with Tq != Tk; Infer must reproduce Forward bit for bit.
func TestAttentionCoreMatchesSplitMerge(t *testing.T) {
	for _, sh := range []struct{ n, tq, tk, heads, dh int }{
		{6, 16, 16, 4, 8}, {2, 64, 64, 4, 8}, {3, 5, 9, 2, 3}, {1, 1, 1, 1, 1},
	} {
		rng := tensor.NewRNG(int64(100 + sh.tq))
		e := sh.heads * sh.dh
		q := tensor.Randn(rng, sh.n, sh.tq, e)
		k := tensor.Randn(rng, sh.n, sh.tk, e)
		v := tensor.Randn(rng, sh.n, sh.tk, e)
		dctx := tensor.Randn(rng, sh.n, sh.tq, e)

		c := AttentionCore{Heads: sh.heads, HeadDim: sh.dh}
		ctx := c.Forward(q, k, v).Clone()
		dq, dk, dv := c.Backward(dctx)
		wantCtx, wantQ, wantK, wantV := splitMergeAttention(q, k, v, dctx, sh.heads)
		for _, p := range []struct {
			name      string
			got, want *tensor.Tensor
		}{{"ctx", ctx, wantCtx}, {"dq", dq, wantQ}, {"dk", dk, wantK}, {"dv", dv, wantV}} {
			if !tensor.SameShape(p.got, p.want) {
				t.Fatalf("%+v: %s shape %v, want %v", sh, p.name, p.got.Shape, p.want.Shape)
			}
			if d := tensor.MaxAbsDiff(p.got, p.want); d > 1e-12 {
				t.Fatalf("%+v: %s differs from the split/merge formulation by %g", sh, p.name, d)
			}
		}
		if d := tensor.MaxAbsDiff(c.Infer(q, k, v), ctx); d != 0 {
			t.Fatalf("%+v: f64 Infer differs from Forward by %g", sh, d)
		}
	}
}

// TestAttentionCoreGradients checks the core's three gradients against
// central finite differences at the channel-aggregation shape.
func TestAttentionCoreGradients(t *testing.T) {
	rng := tensor.NewRNG(77)
	const n, g, heads, dh = 2, 16, 4, 8
	q := tensor.Randn(rng, n, g, heads*dh)
	k := tensor.Randn(rng, n, g, heads*dh)
	v := tensor.Randn(rng, n, g, heads*dh)
	r := tensor.Randn(rng, n, g, heads*dh)
	c := AttentionCore{Heads: heads, HeadDim: dh}
	loss := func() float64 { return dotAll(c.Forward(q, k, v), r) }
	loss()
	dq, dk, dv := c.Backward(r)
	checkGrad(t, "core/q", q, dq, loss, 1e-6)
	checkGrad(t, "core/k", k, dk, loss, 1e-6)
	checkGrad(t, "core/v", v, dv, loss, 1e-6)
}

// TestAttentionCoreSteadyStateAllocs pins the core's layer-owned-scratch
// contract: once warm, forward, backward and both eval arithmetics allocate
// nothing.
func TestAttentionCoreSteadyStateAllocs(t *testing.T) {
	rng := tensor.NewRNG(1)
	q, k, v := tensor.Randn(rng, 8, 16, 32), tensor.Randn(rng, 8, 16, 32), tensor.Randn(rng, 8, 16, 32)
	c := AttentionCore{Heads: 4, HeadDim: 8}
	step := func() {
		c.Backward(c.Forward(q, k, v))
		c.SetInferDType(tensor.F64)
		c.Infer(q, k, v)
		c.SetInferDType(tensor.F32)
		c.Infer(q, k, v)
	}
	step()
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("attention core allocates %.1f times per step in steady state", n)
	}
}
