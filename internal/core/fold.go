package core

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The cross stage's first level folds the tokenizer into its aggregators'
// input projections (DESIGN.md "The cross first level folds the tokenizer
// into Q/K/V"). Channel c's token at a location is P_c·W_c + u_c, its P*P
// pixels P_c through the tokenizer's weights W_c [P², E] plus
// u_c = b_c + id_c, and nothing non-linear stands between the token and the
// group's projections, so
//
//	Q_c = P_c·(W_c·Wq) + (u_c·Wq + bq)
//
// and likewise K and V: a P²-deep product per location instead of an E-deep
// one behind the tokenizer's, and no channel token is written. With
// wu = [W_c...; u_c...] the group's weights stacked, [g(P²+1), E], one
// product per projection folds them: wu·Wq is Ŵq (g·P² rows) above u·Wq.
//
// The backward never forms a token gradient either, nor a pixel gradient:
// nothing reads the image's. With G_c = P_cᵀ·dQ_c and s_c the column sums
// of dQ_c, both [.., E] and stacked as wu is:
//
//	dWq += wuᵀ·[G; s]         dbq += Σ_c s_c
//	d[W; u] = Σ_{q,k,v} [G; s]·Wᵀ   (dW_c, and db_c = did_c)
//
// G sums over locations, so a pass over listed locations cuts it where a
// pass over every location would (tensor.DepthSplits); every other sum runs
// over channels and weights, the same at every mask.
//
// A group keeps no Q, K or V between its passes: the stage lends one buffer,
// sized for its largest group, to every group in turn, and the backward
// forms a group's Q, K and V there again, from the cached patches and the
// group's folded weights by the forward's own products, just before the
// attention's backward reads them and writes dQ, dK and dV over them — the
// same bits, for three 4-deep products per group, less than the pixel
// gradient's products it replaces.

// crossFold is one first-level cross group's folded projections: the
// forward state its backward reads. The no-grad pass lends one to every
// group in turn.
type crossFold struct {
	wu  *tensor.Tensor    // [g(P²+1), E]: the group's W_c, channel by channel, then one row u_c per channel
	w   [3]*tensor.Tensor // wu·W_x for x = q, k, v, with b_x added to the last g rows: Ŵ_x [g·P², E] above β̂_x [g, E]
	qkv [3]tensor.Tensor  // Q, K and V [N, g, E]: headers over the buffer the pass lends (project)

	wx, xv tensor.Tensor // headers: one Ŵ_x, one of qkv
}

// foldGrads is the folded first level's backward scratch, part of the
// level's workspace.
type foldGrads struct {
	gs [3]*tensor.Tensor // [g(P²+1), E]: G_x above s_x, for x = q, k, v
	d  [2]*tensor.Tensor // [g(P²+1), E]: Σ_x gs_x·W_xᵀ, the gradient of wu, and the partial sum before it

	gv, xv tensor.Tensor // headers
}

// header points h at data as a tensor of the given shape and returns it.
func header(h *tensor.Tensor, data []float64, shape ...int) *tensor.Tensor {
	h.Data, h.Shape = data, append(h.Shape[:0], shape...)
	return h
}

// columns views x [N, g, E] as its g columns, member k the [N, E] rows of
// channel k, g·E apart, through the header h.
func columns(h, x *tensor.Tensor) tensor.View {
	n, g, e := x.Shape[0], x.Shape[1], x.Shape[2]
	return tensor.HeadView(header(h, x.Data, 1, n, g*e), g)
}

// projections returns the input projections of a cross aggregator.
func projections(a *CrossAttnAggregator) [3]*nn.Linear {
	return [3]*nn.Linear{a.Attn.Wq, a.Attn.Wk, a.Attn.Wv}
}

// groupPatches views channels c, c+1, ..., c+g-1 of pat [localC, N, P²],
// the tokenizer's patches, as g members [N, P²], through the header h.
func groupPatches(h, pat *tensor.Tensor, c, g int) tensor.View {
	n, pp := pat.Shape[1], pat.Shape[2]
	return tensor.MatView(header(h, pat.Data[c*n*pp:(c+g)*n*pp], g, n, pp))
}

// project points f's Q, K and V [N, g, E] at qkv (3·N·g·E values or more)
// and writes them there from the group's patches through its folded
// weights f.w: one batched product each, every channel's own weights and
// bias.
//
// dchag:hotpath — every cross group's Q/K/V, forward and again in backward.
func (f *crossFold) project(qkv []float64, patches tensor.View, n, g, e, pp int) {
	for x := range f.qkv {
		q := header(&f.qkv[x], qkv[x*n*g*e:(x+1)*n*g*e], n, g, e)
		wx := tensor.MatView(header(&f.wx, f.w[x].Data[:g*pp*e], g, pp, e))
		tensor.BatchedAffineInto(columns(&f.xv, q), patches, wx, 1, f.w[x].Data[g*pp*e:])
	}
}

// foldForward runs cross aggregator a as the first level over local channels
// c, c+1, ... of pat [localC, N, P²], the tokenizer's patches
// (nn.PatchEmbed.Patches), in f: it folds the tokenizer into a's input
// projections, writes Q, K and V straight from the pixels into qkv, the
// buffer the pass lends the group (project), and runs the pooled attention
// on them. It returns a's output [N, E]. With infer it caches nothing;
// without, the attention keeps f's headers over qkv, which foldBackward
// fills again before it reads them.
//
// dchag:hotpath — the cross stage's first level, every step and every
// no-grad pass; every buffer is fold-owned or lent.
func foldForward(f *crossFold, a *CrossAttnAggregator, tok *nn.PatchEmbed, ids *nn.ChannelEmbed, pat *tensor.Tensor, c int, qkv []float64, infer bool) *tensor.Tensor {
	g, e, pp, n := a.Group, tok.Embed, tok.Patch*tok.Patch, pat.Shape[1]
	f.wu = tensor.EnsureShape(f.wu, g*(pp+1), e)
	copy(f.wu.Data, tok.Weight.W.Data[c*pp*e:(c+g)*pp*e])
	u := f.wu.Data[g*pp*e:]
	copy(u, tok.Bias.W.Data[c*e:(c+g)*e])
	tensor.AccumRows(u, ids.Table.W.Data[c*e:(c+g)*e], g*e, 1, nil)
	for x, l := range projections(a) {
		f.w[x] = tensor.EnsureShape(f.w[x], g*(pp+1), e)
		tensor.MatMulInto(f.w[x], f.wu, l.Weight.W)
		beta := f.w[x].Data[g*pp*e:]
		if l.Bias != nil {
			for i := range beta {
				beta[i] += l.Bias.W.Data[i%e]
			}
		}
	}
	f.project(qkv, groupPatches(&f.xv, pat, c, g), n, g, e, pp)
	if infer {
		return a.Attn.InferProjected(&f.qkv[0], &f.qkv[1], &f.qkv[2])
	}
	a.n = n
	return a.Attn.ForwardProjected(&f.qkv[0], &f.qkv[1], &f.qkv[2])
}

// foldBackward is foldForward's backward in ws: it forms the group's Q, K
// and V again in qkv, as the forward did, where the attention's backward
// then writes their gradients, and maps d [N, E], the gradient
// of a's output, to the gradients of a's parameters, of the tokenizer's
// weights and bias and of the channel IDs over channels c, c+1, ...,
// accumulated. pat is the training pass's patches, ends the depth pieces of
// a pass over listed locations (nil for every location).
//
// dchag:hotpath — the cross stage's first-level backward; every buffer is
// the workspace's or lent.
func foldBackward(f *crossFold, a *CrossAttnAggregator, d *tensor.Tensor, ws *workspace, tok *nn.PatchEmbed, ids *nn.ChannelEmbed, pat *tensor.Tensor, c int, ends []int, qkv []float64) {
	if a.n == 0 {
		panic("core: CrossAttnAggregator.Backward before Forward")
	}
	g, e, pp, n := a.Group, tok.Embed, tok.Patch*tok.Patch, pat.Shape[1]
	fg := &ws.fold
	patches := groupPatches(&fg.xv, pat, c, g)
	f.project(qkv, patches, n, g, e, pp)
	dq, dk, dv := a.Attn.BackwardProjected(d, &ws.attn)
	ls := projections(a)
	for x, dx := range [3]*tensor.Tensor{dq, dk, dv} {
		gs := tensor.EnsureShape(fg.gs[x], g*(pp+1), e)
		fg.gs[x] = gs
		tensor.BatchedTMatMulInto(tensor.MatView(header(&fg.gv, gs.Data[:g*pp*e], g, pp, e)), patches, columns(&fg.xv, dx), 1, ends)
		s := gs.Data[g*pp*e:]
		clear(s)
		tensor.AccumRows(s, dx.Data, g*e, n, nil)
		tensor.TMatMulAccInto(ls[x].Weight.Grad, f.wu, gs, nil)
		if ls[x].Bias != nil {
			tensor.AccumRows(ls[x].Bias.Grad.Data, s, e, g, nil)
		}
	}
	for i := range fg.d {
		fg.d[i] = tensor.EnsureShape(fg.d[i], g*(pp+1), e)
	}
	d0, d1 := fg.d[0].Data, fg.d[1].Data
	tensor.AffineInto(d0, e, fg.gs[0], ls[0].Weight.W, true, tensor.Epilogue{})
	tensor.AffineInto(d1, e, fg.gs[1], ls[1].Weight.W, true, tensor.Epilogue{Res: d0, ResLd: e})
	tensor.AffineInto(d0, e, fg.gs[2], ls[2].Weight.W, true, tensor.Epilogue{Res: d1, ResLd: e})
	tensor.AccumRows(tok.Weight.Grad.Data[c*pp*e:(c+g)*pp*e], d0, g*pp*e, 1, nil)
	du := d0[g*pp*e:]
	tensor.AccumRows(tok.Bias.Grad.Data[c*e:(c+g)*e], du, g*e, 1, nil)
	tensor.AccumRows(ids.Table.Grad.Data[c*e:(c+g)*e], du, g*e, 1, nil)
}

// The linear stage's first level folds the tokenizer too (DESIGN.md "The
// linear first level folds the tokenizer too"). Its forward is the fused
// pass serving runs, over the training pass's patches: a group's output is
// b + Σ_c w_c·((P_c·W_c + b_c) + id_c), each token formed in registers and
// only its weighted contribution added (HierarchicalAggregator.
// accumulateLinear). Its backward forms no token gradient and no pixel
// gradient: with d [N, E] the group's output gradient, s its column sums and
// G_c = P_cᵀ·d [P², E],
//
//	dW_c += w_c·G_c      db_c += w_c·s      did_c += w_c·s
//	dw_c += ⟨W_c, G_c⟩ + ⟨u_c, s⟩,  u_c = b_c + id_c
//	db   += Σ_n d
//
// G sums over locations and is cut as foldBackward cuts its own; every other
// sum runs over channels, pixels or E.

// linearGrads is the folded linear first level's backward scratch, part of
// the level's workspace.
type linearGrads struct {
	s *tensor.Tensor // [E]: the column sums of the group's output gradient
	u *tensor.Tensor // [E]: one channel's u_c
	g *tensor.Tensor // [g, P², E]: G_c, channel by channel

	pat tensor.Tensor // header
}

// linearFoldBackward is the backward of first-level linear aggregator a with
// the tokenizer folded in, in ws: it maps d [N, E], the gradient of a's
// output, to the gradients of a's weight and bias, of the tokenizer's
// weights and bias and of the channel IDs over local channels c, c+1, ...,
// accumulated. pat is the training pass's patches [localC, N, P²], ends the depth pieces of a pass over listed
// locations (nil for every location).
//
// dchag:hotpath — the linear stage's first-level backward; every buffer is
// the workspace's.
func linearFoldBackward(a *LinearAggregator, d *tensor.Tensor, ws *workspace, tok *nn.PatchEmbed, ids *nn.ChannelEmbed, pat *tensor.Tensor, c int, ends []int) {
	g, e, pp, n := a.Group, tok.Embed, tok.Patch*tok.Patch, pat.Shape[1]
	lg := &ws.lin
	tensor.AccumRows(a.Bias.Grad.Data, d.Data, e, n, nil)
	lg.s = tensor.EnsureShape(lg.s, e)
	s := lg.s.Data
	clear(s)
	tensor.AccumRows(s, d.Data, e, n, nil)
	lg.g = tensor.EnsureShape(lg.g, g, pp, e)
	tensor.BatchedTMatMulInto(tensor.MatView(lg.g), groupPatches(&lg.pat, pat, c, g), tensor.RepeatView(d, g), 1, ends)
	lg.u = tensor.EnsureShape(lg.u, e)
	u, we := lg.u.Data, pp*e
	for k := range a.Weight.W.Data {
		ck := c + k
		wc, gc := tok.Weight.W.Data[ck*we:][:we], lg.g.Data[k*we:][:we]
		coef := a.Weight.W.Data[k : k+1]
		tensor.AccumRows(tok.Weight.Grad.Data[ck*we:][:we], gc, we, 1, coef)
		tensor.AccumRows(tok.Bias.Grad.Data[ck*e:][:e], s, e, 1, coef)
		tensor.AccumRows(ids.Table.Grad.Data[ck*e:][:e], s, e, 1, coef)
		copy(u, tok.Bias.W.Data[ck*e:][:e])
		tensor.AccumRows(u, ids.Table.W.Data[ck*e:][:e], e, 1, nil)
		a.Weight.Grad.Data[k] += dot(wc, gc) + dot(u, s)
	}
}

// dot returns Σ_i x[i]·y[i] over four chains, i mod 4, each product rounded
// before its add and the chains summed in pairs at the end.
func dot(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += float64(x[i] * y[i])
		s1 += float64(x[i+1] * y[i+1])
		s2 += float64(x[i+2] * y[i+2])
		s3 += float64(x[i+3] * y[i+3])
	}
	for ; i < len(x); i++ {
		s0 += float64(x[i] * y[i])
	}
	return (s0 + s1) + (s2 + s3)
}
