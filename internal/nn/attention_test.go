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
	tmm := func(dst, a, b tensor.View, alpha float64) { tensor.BatchedTMatMulInto(dst, a, b, alpha, nil) }
	scores := batched(tensor.BatchedMatMulTInto, qh, kh, tq, tk)
	tensor.ScaleInPlace(scores, scale)
	attn := tensor.SoftmaxLastDimInto(nil, scores)
	ctx = mergeHeads(batched(tensor.BatchedMatMulInto, attn, vh, tq, dh))

	dch := splitHeads(dctx, heads)
	dA := batched(tensor.BatchedMatMulTInto, dch, vh, tq, tk)
	dvh := batched(tmm, attn, dch, tk, dh)
	dS := tensor.SoftmaxBackwardLastDimInto(nil, attn, dA)
	tensor.ScaleInPlace(dS, scale)
	dqh := batched(tensor.BatchedMatMulInto, dS, kh, tq, dh)
	dkh := batched(tmm, dS, qh, tk, dh)
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
		dq, dk, dv := c.Backward(dctx, new(PooledGrads))
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
	dq, dk, dv := c.Backward(r, new(PooledGrads))
	checkGrad(t, "core/q", q, dq, loss, 1e-6)
	checkGrad(t, "core/k", k, dk, loss, 1e-6)
	checkGrad(t, "core/v", v, dv, loss, 1e-6)
}

// meanThenBackward is the unpooled formulation the pooled product replaced in
// the channel aggregators, kept as its reference: the full context through
// AttentionCore.Forward, a mean over the query rows, and the gradient of that
// mean broadcast back over the rows into AttentionCore.Backward.
func meanThenBackward(q, k, v, d *tensor.Tensor, heads int) (out, dq, dk, dv *tensor.Tensor) {
	c := AttentionCore{Heads: heads, HeadDim: q.Shape[2] / heads}
	n, tq, e := q.Shape[0], q.Shape[1], q.Shape[2]
	out = tensor.ScaleInto(nil, tensor.SumAxisInto(nil, c.Forward(q, k, v), 1), 1/float64(tq))
	dctx := tensor.New(n, tq, e)
	for ni := 0; ni < n; ni++ {
		for i := 0; i < tq; i++ {
			for j := 0; j < e; j++ {
				dctx.Data[(ni*tq+i)*e+j] = d.Data[ni*e+j] / float64(tq)
			}
		}
	}
	dq, dk, dv = c.Backward(dctx, new(PooledGrads))
	return out, dq, dk, dv
}

// TestAttentionCorePooledMatchesUnpooled pins the pooled product — the mean
// over the query rows taken on the softmax map — against the unpooled core
// followed by a row mean: output and all three gradients to 1e-12 at the
// partial-aggregation shape (g = 16, Dh = 8), the final layer (4 partition
// tokens, Dh = 16), a rectangular map (4 queries over 16 keys) and 1 x 1. f64
// InferPooled must reproduce ForwardPooled bit for bit; f32 InferPooled stays
// inside the DESIGN.md tolerance (1e-4 of the output scale) without being
// bitwise equal.
func TestAttentionCorePooledMatchesUnpooled(t *testing.T) {
	for _, sh := range []struct{ n, tq, tk, heads, dh int }{
		{6, 16, 16, 4, 8}, {5, 4, 4, 4, 16}, {3, 4, 16, 4, 8}, {1, 1, 1, 1, 1},
	} {
		rng := tensor.NewRNG(int64(200 + sh.tq + sh.tk))
		e := sh.heads * sh.dh
		q := tensor.Randn(rng, sh.n, sh.tq, e)
		k := tensor.Randn(rng, sh.n, sh.tk, e)
		v := tensor.Randn(rng, sh.n, sh.tk, e)
		d := tensor.Randn(rng, sh.n, e)

		c := AttentionCore{Heads: sh.heads, HeadDim: sh.dh}
		out := c.ForwardPooled(q.Clone(), k.Clone(), v.Clone()).Clone() // the backward consumes its operands
		dq, dk, dv := c.BackwardPooled(d)
		wantOut, wantQ, wantK, wantV := meanThenBackward(q, k, v, d, sh.heads)
		for _, p := range []struct {
			name      string
			got, want *tensor.Tensor
		}{{"out", out, wantOut}, {"dq", dq, wantQ}, {"dk", dk, wantK}, {"dv", dv, wantV}} {
			if !tensor.SameShape(p.got, p.want) {
				t.Fatalf("%+v: %s shape %v, want %v", sh, p.name, p.got.Shape, p.want.Shape)
			}
			if diff := tensor.MaxAbsDiff(p.got, p.want); diff > 1e-12 {
				t.Fatalf("%+v: pooled %s differs from mean-after-attention by %g", sh, p.name, diff)
			}
		}
		if diff := tensor.MaxAbsDiff(c.InferPooled(q, k, v), out); diff != 0 {
			t.Fatalf("%+v: f64 InferPooled differs from ForwardPooled by %g", sh, diff)
		}
		c.SetInferDType(tensor.F32)
		diff := tensor.MaxAbsDiff(c.InferPooled(q, k, v), out)
		if tol := 1e-4 * math.Max(1, math.Max(out.Max(), -out.Min())); diff > tol {
			t.Fatalf("%+v: f32 InferPooled differs from ForwardPooled by %g (tol %g)", sh, diff, tol)
		}
		if diff == 0 && sh.dh > 1 {
			t.Fatalf("%+v: f32 InferPooled is bitwise equal to f64 — the f32 score product is not engaged", sh)
		}
	}
}

// TestAttentionCorePooledGradients checks the pooled core's three gradients
// against central finite differences at the channel-aggregation shape.
func TestAttentionCorePooledGradients(t *testing.T) {
	rng := tensor.NewRNG(78)
	const n, g, heads, dh = 2, 16, 4, 8
	q := tensor.Randn(rng, n, g, heads*dh)
	k := tensor.Randn(rng, n, g, heads*dh)
	v := tensor.Randn(rng, n, g, heads*dh)
	r := tensor.Randn(rng, n, heads*dh)
	c := AttentionCore{Heads: heads, HeadDim: dh}
	// The backward writes its gradients over the forward's operands.
	loss := func() float64 { return dotAll(c.ForwardPooled(q.Clone(), k.Clone(), v.Clone()), r) }
	loss()
	dq, dk, dv := c.BackwardPooled(r)
	checkGrad(t, "pooled/q", q, dq, loss, 1e-6)
	checkGrad(t, "pooled/k", k, dk, loss, 1e-6)
	checkGrad(t, "pooled/v", v, dv, loss, 1e-6)
}

// TestAttentionCorePooledRowsIndependentOfBatch pins the summation-order
// contract DP row-sharding relies on: a location's pooled output and
// gradients are bitwise the same whether it is computed in a batch of 6 or
// alone.
func TestAttentionCorePooledRowsIndependentOfBatch(t *testing.T) {
	rng := tensor.NewRNG(79)
	const n, g, heads, dh = 6, 16, 4, 8
	e := heads * dh
	q, k, v := tensor.Randn(rng, n, g, e), tensor.Randn(rng, n, g, e), tensor.Randn(rng, n, g, e)
	d := tensor.Randn(rng, n, e)
	full := AttentionCore{Heads: heads, HeadDim: dh}
	out := full.ForwardPooled(q.Clone(), k.Clone(), v.Clone()) // the backward consumes its operands
	dq, dk, dv := full.BackwardPooled(d)
	for ni := 0; ni < n; ni++ {
		row := func(x *tensor.Tensor) *tensor.Tensor { return tensor.SliceAxis(x, 0, ni, ni+1) }
		one := AttentionCore{Heads: heads, HeadDim: dh}
		o := one.ForwardPooled(row(q), row(k), row(v))
		oq, ok, ov := one.BackwardPooled(row(d))
		for name, p := range map[string][2]*tensor.Tensor{
			"out": {o, row(out)}, "dq": {oq, row(dq)}, "dk": {ok, row(dk)}, "dv": {ov, row(dv)},
		} {
			if diff := tensor.MaxAbsDiff(p[0], p[1]); diff != 0 {
				t.Fatalf("location %d: %s computed alone differs from the batch by %g", ni, name, diff)
			}
		}
	}
}

// TestAttentionCoreSteadyStateAllocs pins the core's scratch contract: once
// warm, forward, backward and both eval arithmetics allocate nothing, in the
// per-row and in the pooled form. The per-row backward borrows a workspace;
// the pooled one writes over its own Q/K/V, formed again every step.
func TestAttentionCoreSteadyStateAllocs(t *testing.T) {
	rng := tensor.NewRNG(1)
	q, k, v := tensor.Randn(rng, 8, 16, 32), tensor.Randn(rng, 8, 16, 32), tensor.Randn(rng, 8, 16, 32)
	pq, pk, pv := q.Clone(), k.Clone(), v.Clone()
	d := tensor.Randn(rng, 8, 32)
	c, p := AttentionCore{Heads: 4, HeadDim: 8}, AttentionCore{Heads: 4, HeadDim: 8}
	var grads PooledGrads
	step := func() {
		c.Backward(c.Forward(q, k, v), &grads)
		copy(pq.Data, q.Data)
		copy(pk.Data, k.Data)
		copy(pv.Data, v.Data)
		p.ForwardPooled(pq, pk, pv)
		p.BackwardPooled(d)
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			c.SetInferDType(dt)
			c.Infer(q, k, v)
			p.SetInferDType(dt)
			p.InferPooled(q, k, v)
		}
	}
	step()
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("attention core allocates %.1f times per step in steady state", n)
	}
}

// BenchmarkAttentionPooled times the pooled product and its backward at the
// partial-aggregation shape of the hsi workloads (128 locations, g = 16).
// The backward writes over the core's Q/K/V, so each iteration forms them
// again (three copies, timed too), as the stage forms a group's anew: no
// iteration runs on the previous one's gradients.
func BenchmarkAttentionPooled(b *testing.B) {
	rng := tensor.NewRNG(3)
	q, k, v := tensor.Randn(rng, 128, 16, 32), tensor.Randn(rng, 128, 16, 32), tensor.Randn(rng, 128, 16, 32)
	cq, ck, cv := q.Clone(), k.Clone(), v.Clone()
	d := tensor.Randn(rng, 128, 32)
	c := AttentionCore{Heads: 4, HeadDim: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(cq.Data, q.Data)
		copy(ck.Data, k.Data)
		copy(cv.Data, v.Data)
		c.ForwardPooled(cq, ck, cv)
		c.BackwardPooled(d)
	}
}

// TestCrossAttentionBackwardTokensBitwise holds BackwardTokens over a range
// of tokens to the same layer's backward over every token, [0, T), bit for
// bit: the range's slots equal the whole range's slots of the same tokens,
// and every parameter gradient, which sums over every row either way, is
// the same — over every location and over listed ones (PooledGrads.Locs).
func TestCrossAttentionBackwardTokensBitwise(t *testing.T) {
	const b, tt, e = 3, 4, 8
	rng := tensor.NewRNG(90)
	x := tensor.Randn(rng, b, tt, e)
	r := tensor.Randn(rng, b, e)
	for _, locs := range [][]int{nil, {0, 2, 5}} {
		for _, span := range [][2]int{{0, tt}, {1, 3}, {tt - 1, tt}} {
			whole, part := NewCrossAttention("x", e, 2, 91), NewCrossAttention("x", e, 2, 91)
			whole.ForwardPooled(x)
			part.ForwardPooled(x)
			dx := whole.BackwardTokens(r, &PooledGrads{Locs: locs}, 0, tt)
			dt := part.BackwardTokens(r, &PooledGrads{Locs: locs}, span[0], span[1])
			if want := []int{span[1] - span[0], b, e}; !tensor.SameShape(dt, tensor.New(want...)) {
				t.Fatalf("locs %v tokens %v: gradient %v, want %v", locs, span, dt.Shape, want)
			}
			want := dx.Data[span[0]*b*e : span[1]*b*e]
			for i, g := range dt.Data {
				if math.Float64bits(g) != math.Float64bits(want[i]) {
					t.Fatalf("locs %v tokens %v: token %d row %d element %d = %v, whole range %v", locs, span, span[0]+i/(b*e), i/e%b, i%e, g, want[i])
				}
			}
			for pi, p := range part.Params() {
				for i, g := range p.Grad.Data {
					if w := whole.Params()[pi].Grad.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("locs %v tokens %v: %s gradient %d = %v, whole range %v", locs, span, p.Name, i, g, w)
					}
				}
			}
		}
	}
}
