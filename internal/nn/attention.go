package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// AttentionCore is the scaled-dot-product attention softmax(q k^T / sqrt(Dh)) v
// over already-projected sequences q [N,Tq,E], k and v [N,Tk,E] with
// E = Heads*HeadDim — the one attention product in the repository, shared by
// self- and cross-attention here and by the tensor-parallel layers in
// internal/parallel (which pass their local heads). Heads are never
// made contiguous: the batched kernels read each head out of the projection
// outputs through a tensor.HeadView and write the context straight into the
// merged [N,Tq,E] layout; only a transposed key block (Q K^T) is ever copied,
// into the kernel's panel.
//
// Forward keeps references to q, k and v for Backward instead of copying
// them; like every layer input they must stay unmodified until Backward has
// run (the single-stream contract in the package doc).
//
// The product has two forms over the same views and scratch. Forward / Infer
// / Backward produce one context row per query row. ForwardPooled /
// InferPooled / BackwardPooled produce the mean of those rows, [N,E], for
// consumers that read nothing else (the channel aggregators): the mean is
// linear, so it is taken on the softmax map — pbar[n,h,j] = (1/Tq) sum_i
// P[n,h,i,j] — and the value product shrinks from Tq x Tk x Dh to 1 x Tk x Dh
// per head. The pooled form is one tensor.PooledAttention pass per direction,
// location by location with every head. Either backward writes into a
// PooledGrads the caller lends it; the core keeps no backward scratch. A
// core serves one form at a time.
type AttentionCore struct {
	Heads, HeadDim int

	dtype tensor.DType // arithmetic of the no-grad Infer path

	q, k, v *tensor.Tensor // Forward's operands
	attn    *tensor.Tensor // Forward's or ForwardPooled's softmax weights [N,H,Tq,Tk]
	ctx     *tensor.Tensor // Forward's output
	pbar    *tensor.Tensor // ForwardPooled's pooled weights [N,H,Tk]

	iattn, ictx, ipbar *tensor.Tensor // Infer's twins, separate so an eval pass
	// never clobbers what a pending Backward reads
}

// PooledGrads is the backward scratch of attention, either form: every
// buffer AttentionCore's backwards and the attention layers' backwards
// write — the output projection's input gradient, the per-row core's score
// gradient dA, the core's dq, dk and dv and the input projections' input
// gradients — grown to each call's shapes. Its owner lends it for one call
// at a time, and the gradients a call returns live in it until the next
// call that borrows it, so layers whose backwards run one after another,
// each result consumed before the next call, share one (the D-CHAG stage
// lends one to every channel aggregator of a tree level, a BlockGrads holds
// the one every transformer block of a stack borrows). The zero value is
// ready to use.
type PooledGrads struct {
	// Locs, when non-nil, says that the forward ran over some locations of
	// a batch only, ascending (the D-CHAG stage of a masked step): row n of
	// a [N, ...] operand is location Locs[n]. The projections' weight
	// gradients then sum their rows in the kc blocks a pass over every
	// location would have used (tensor.DepthSplits), so the skipped
	// locations, whose gradient would have been zero, change no bit.
	Locs []int

	dctx       *tensor.Tensor // the output projection's input gradient
	dA         *tensor.Tensor // the per-row core's score gradient [N,H,Tq,Tk]
	dq, dk, dv *tensor.Tensor // the core's; dq or dk then holds a sum of input gradients
	dx         *tensor.Tensor // an input projection's input gradient
	ends       []int          // depthEnds' pieces
}

// depthEnds returns the weight-gradient pieces of a projection whose output
// gradient is g, a whole number of rows per location: nil (one product)
// unless Locs is set.
func (s *PooledGrads) depthEnds(g *tensor.Tensor) []int {
	if len(s.Locs) == 0 {
		return nil
	}
	rows := len(g.Data) / g.Shape[len(g.Shape)-1]
	s.ends = tensor.DepthSplits(s.ends, s.Locs, rows/len(s.Locs))
	return s.ends
}

// SetInferDType selects the arithmetic of Infer's matrix products.
func (c *AttentionCore) SetInferDType(dt tensor.DType) { c.dtype = dt }

// weights grows p to [N,H,Tq,Tk], overwrites it with the attention weights
// softmax(q k^T / sqrt(Dh)) and returns it. The scale rides on the score
// product's tile store; the softmax is float64 under either dtype.
//
// dchag:hotpath — every attention of the per-row form, every step and every
// served micro-batch.
func (c *AttentionCore) weights(p, q, k *tensor.Tensor, dt tensor.DType) *tensor.Tensor {
	p = tensor.EnsureShape(p, q.Shape[0], c.Heads, q.Shape[1], k.Shape[1])
	scoreProduct := tensor.BatchedMatMulTInto
	if dt == tensor.F32 {
		scoreProduct = tensor.BatchedMatMulTF32Into
	}
	scoreProduct(tensor.MatView(p), tensor.HeadView(q, c.Heads), tensor.HeadView(k, c.Heads), c.scale())
	return tensor.SoftmaxLastDimInto(p, p)
}

// scale is the score scale 1/sqrt(Dh).
func (c *AttentionCore) scale() float64 { return 1 / math.Sqrt(float64(c.HeadDim)) }

// Forward returns the merged context [N,Tq,E] (core-owned scratch), caching
// the attention weights for Backward.
//
// dchag:hotpath — the attention product of every transformer block.
func (c *AttentionCore) Forward(q, k, v *tensor.Tensor) *tensor.Tensor {
	c.q, c.k, c.v = q, k, v
	c.attn = c.weights(c.attn, q, k, tensor.F64)
	c.ctx = tensor.EnsureShape(c.ctx, q.Shape...)
	tensor.BatchedMatMulInto(tensor.HeadView(c.ctx, c.Heads), tensor.MatView(c.attn), tensor.HeadView(v, c.Heads), 1)
	return c.ctx
}

// Infer computes Forward's output without caching anything for Backward.
// Under dtype F32 the two matrix products run in float32.
//
// dchag:hotpath — once per block per served micro-batch.
func (c *AttentionCore) Infer(q, k, v *tensor.Tensor) *tensor.Tensor {
	c.iattn = c.weights(c.iattn, q, k, c.dtype)
	c.ictx = tensor.EnsureShape(c.ictx, q.Shape...)
	contextProduct := tensor.BatchedMatMulInto
	if c.dtype == tensor.F32 {
		contextProduct = tensor.BatchedMatMulF32Into
	}
	contextProduct(tensor.HeadView(c.ictx, c.Heads), tensor.MatView(c.iattn), tensor.HeadView(v, c.Heads), 1)
	return c.ictx
}

// Backward maps the merged-context gradient [N,Tq,E] to gradients with
// respect to Forward's q, k and v, each in its operand's layout and in s:
// dA = dctx v^T, dv = A^T dctx, the softmax backward turns dA into the score
// gradient dS in place, then dq = dS k / sqrt(Dh) and dk = dS^T q / sqrt(Dh).
//
// dchag:hotpath — per-step attention backward kernels.
func (c *AttentionCore) Backward(dctx *tensor.Tensor, s *PooledGrads) (dq, dk, dv *tensor.Tensor) {
	if c.attn == nil {
		panic("nn: attention backward before forward")
	}
	av, gv := tensor.MatView(c.attn), tensor.HeadView(dctx, c.Heads)
	s.dA = tensor.EnsureShape(s.dA, c.attn.Shape...)
	tensor.BatchedMatMulTInto(tensor.MatView(s.dA), gv, tensor.HeadView(c.v, c.Heads), 1) // [N,H,Tq,Tk]
	s.dv = tensor.EnsureShape(s.dv, c.v.Shape...)
	tensor.BatchedTMatMulInto(tensor.HeadView(s.dv, c.Heads), av, gv, 1)
	tensor.SoftmaxBackwardLastDimInto(s.dA, c.attn, s.dA)
	dS := tensor.MatView(s.dA)
	s.dq = tensor.EnsureShape(s.dq, c.q.Shape...)
	tensor.BatchedMatMulInto(tensor.HeadView(s.dq, c.Heads), dS, tensor.HeadView(c.k, c.Heads), c.scale())
	s.dk = tensor.EnsureShape(s.dk, c.k.Shape...)
	tensor.BatchedTMatMulInto(tensor.HeadView(s.dk, c.Heads), dS, tensor.HeadView(c.q, c.Heads), c.scale())
	return s.dq, s.dk, s.dv
}

// ForwardPooled returns the mean over the Tq query rows of Forward's merged
// context, [N,E] (core-owned scratch), without forming that context: one
// tensor.PooledAttention pass per location, which leaves the softmax map and
// its pooled mean for BackwardPooled.
//
// dchag:hotpath — every channel aggregation, every step.
func (c *AttentionCore) ForwardPooled(q, k, v *tensor.Tensor) *tensor.Tensor {
	c.q, c.k, c.v = q, k, v
	n, tq, tk := q.Shape[0], q.Shape[1], k.Shape[1]
	c.attn = tensor.EnsureShape(c.attn, n, c.Heads, tq, tk)
	c.pbar = tensor.EnsureShape(c.pbar, n, c.Heads, tk)
	c.ctx = tensor.EnsureShape(c.ctx, n, q.Shape[2])
	tensor.PooledAttention(c.ctx, c.pbar, c.attn, tensor.HeadView(q, c.Heads), tensor.HeadView(k, c.Heads), tensor.HeadView(v, c.Heads), c.scale(), false)
	return c.ctx
}

// InferPooled computes ForwardPooled's output without caching anything for
// BackwardPooled and without writing the map. Under dtype F32 the score
// product runs in float32 into the infer map and the pass starts at its
// softmax; the softmax and the pooled reductions stay float64.
//
// dchag:hotpath — the channel aggregation of every served micro-batch.
func (c *AttentionCore) InferPooled(q, k, v *tensor.Tensor) *tensor.Tensor {
	n := q.Shape[0]
	qv, kv, vv := tensor.HeadView(q, c.Heads), tensor.HeadView(k, c.Heads), tensor.HeadView(v, c.Heads)
	c.ipbar = tensor.EnsureShape(c.ipbar, n, c.Heads, k.Shape[1])
	c.ictx = tensor.EnsureShape(c.ictx, n, q.Shape[2])
	if c.dtype != tensor.F32 {
		tensor.PooledAttention(c.ictx, c.ipbar, nil, qv, kv, vv, c.scale(), false)
		return c.ictx
	}
	c.iattn = tensor.EnsureShape(c.iattn, n, c.Heads, q.Shape[1], k.Shape[1])
	tensor.BatchedMatMulTF32Into(tensor.MatView(c.iattn), qv, kv, c.scale())
	tensor.PooledAttention(c.ictx, c.ipbar, c.iattn, qv, kv, vv, c.scale(), true)
	return c.ictx
}

// BackwardPooled maps the pooled-context gradient [N,E] to gradients with
// respect to ForwardPooled's q, k and v, each in its operand's layout and in
// s, through tensor.PooledAttentionBackward: the score gradient lives per
// location in the pass's scratch, and the cached map is left intact, so
// BackwardPooled may run more than once per forward.
//
// dchag:hotpath — per-step channel-aggregation backward.
func (c *AttentionCore) BackwardPooled(dcbar *tensor.Tensor, s *PooledGrads) (dq, dk, dv *tensor.Tensor) {
	if c.attn == nil || c.pbar == nil {
		panic("nn: pooled attention backward before pooled forward")
	}
	s.dq = tensor.EnsureShape(s.dq, c.q.Shape...)
	s.dk = tensor.EnsureShape(s.dk, c.k.Shape...)
	s.dv = tensor.EnsureShape(s.dv, c.v.Shape...)
	tensor.PooledAttentionBackward(tensor.HeadView(s.dq, c.Heads), tensor.HeadView(s.dk, c.Heads), tensor.HeadView(s.dv, c.Heads),
		dcbar, c.pbar, c.attn, tensor.HeadView(c.q, c.Heads), tensor.HeadView(c.k, c.Heads), tensor.HeadView(c.v, c.Heads), c.scale())
	return s.dq, s.dk, s.dv
}

// attnProj is what self- and cross-attention share: the four E x E
// projections, the attention product over their outputs, the eval dtype
// switch and the parameter list.
type attnProj struct {
	Embed, Heads int
	Wq, Wk, Wv   *Linear
	Wo           *Linear

	core AttentionCore
}

func newAttnProj(name string, embed, heads int, seed int64) attnProj {
	if embed%heads != 0 {
		panic(fmt.Sprintf("nn: embed %d not divisible by heads %d", embed, heads))
	}
	return attnProj{
		Embed: embed,
		Heads: heads,
		Wq:    NewLinear(name+".wq", embed, embed, SubSeed(seed, 0)),
		Wk:    NewLinear(name+".wk", embed, embed, SubSeed(seed, 1)),
		Wv:    NewLinear(name+".wv", embed, embed, SubSeed(seed, 2)),
		Wo:    NewLinear(name+".wo", embed, embed, SubSeed(seed, 3)),
		core:  AttentionCore{Heads: heads, HeadDim: embed / heads},
	}
}

// SetInferDType selects the arithmetic of the no-grad Infer path for the
// four projections and the attention products.
func (a *attnProj) SetInferDType(dt tensor.DType) {
	a.Wq.SetInferDType(dt)
	a.Wk.SetInferDType(dt)
	a.Wv.SetInferDType(dt)
	a.Wo.SetInferDType(dt)
	a.core.SetInferDType(dt)
}

// Params returns the projection parameters.
func (a *attnProj) Params() []*Param {
	var ps []*Param
	ps = append(ps, a.Wq.Params()...)
	ps = append(ps, a.Wk.Params()...)
	ps = append(ps, a.Wv.Params()...)
	ps = append(ps, a.Wo.Params()...)
	return ps
}

// SelfAttention is a standard multi-head self-attention layer: the ViT
// component of the paper's architecture applies it over spatial tokens.
type SelfAttention struct{ attnProj }

// NewSelfAttention constructs a multi-head self-attention layer over embed
// dimensions with the given head count.
func NewSelfAttention(name string, embed, heads int, seed int64) *SelfAttention {
	return &SelfAttention{newAttnProj(name, embed, heads, seed)}
}

// Forward computes multi-head self-attention over x of shape [B,T,E].
func (a *SelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor { return a.forward(x, nil) }

// forward is Forward with res added to the output projection as it stores
// (a block's residual x + Attn(LN x)); nil adds nothing.
func (a *SelfAttention) forward(x, res *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: SelfAttention.Forward requires [B,T,E], got %v", x.Shape))
	}
	return a.Wo.forward(a.core.Forward(a.Wq.Forward(x), a.Wk.Forward(x), a.Wv.Forward(x)), res)
}

// Infer computes Forward's output through the projections' no-grad fast
// paths, caching nothing.
func (a *SelfAttention) Infer(x *tensor.Tensor) *tensor.Tensor { return a.infer(x, nil) }

// infer is Infer with res added as forward adds it.
func (a *SelfAttention) infer(x, res *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: SelfAttention.Infer requires [B,T,E], got %v", x.Shape))
	}
	return a.Wo.infer(a.core.Infer(a.Wq.Infer(x), a.Wk.Infer(x), a.Wv.Infer(x)), res)
}

// Backward is BackwardIn in a workspace made for the call: the form for a
// layer run alone.
func (a *SelfAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return a.BackwardIn(grad, new(BlockGrads))
}

// BackwardIn back-propagates to the forward input in ws, accumulating
// parameter gradients in the four projections (BlockGrads.BackwardAttention).
func (a *SelfAttention) BackwardIn(grad *tensor.Tensor, ws *BlockGrads) *tensor.Tensor {
	return ws.BackwardAttention(grad, &a.core, a.Wq, a.Wk, a.Wv, a.Wo)
}

// CrossAttention is the paper's channel-aggregation attention: the
// per-location channel tokens are its query and its key/value context at
// once, and its output is reduced across the channel axis. That reduced
// output is the only one the layer computes.
type CrossAttention struct{ attnProj }

// NewCrossAttention constructs a multi-head cross-attention layer.
func NewCrossAttention(name string, embed, heads int, seed int64) *CrossAttention {
	return &CrossAttention{newAttnProj(name, embed, heads, seed)}
}

// ForwardPooled attends the tokens x [B,T,E] to each other and returns the
// mean of the T output tokens, [B,E]. The mean commutes with the value
// product and the output projection, so it is taken on the attention weights
// (AttentionCore.ForwardPooled) and Wo runs over B rows, not B*T.
func (a *CrossAttention) ForwardPooled(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: CrossAttention.ForwardPooled requires [B,T,E], got %v", x.Shape))
	}
	return a.ForwardProjected(a.Wq.Forward(x), a.Wk.Forward(x), a.Wv.Forward(x))
}

// ForwardProjected is ForwardPooled past the input projections: q, k and v
// [B,T,E] are what Wq, Wk and Wv would have made of the tokens, formed by
// the caller (the D-CHAG stage's cross first level computes them straight
// from the pixels, the tokenizer folded in). It keeps the three tensors,
// not their values, for BackwardProjected, so they must hold the same
// values when it runs: the caller may lend their storage to others in
// between and write them again (the stage forms a group's Q, K and V anew
// just before its backward).
//
// dchag:hotpath — every channel aggregation, every step.
func (a *CrossAttention) ForwardProjected(q, k, v *tensor.Tensor) *tensor.Tensor {
	return a.Wo.Forward(a.core.ForwardPooled(q, k, v))
}

// InferPooled computes ForwardPooled's output through the projections'
// no-grad fast paths, caching nothing.
func (a *CrossAttention) InferPooled(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: CrossAttention.InferPooled requires [B,T,E], got %v", x.Shape))
	}
	return a.InferProjected(a.Wq.Infer(x), a.Wk.Infer(x), a.Wv.Infer(x))
}

// InferProjected is ForwardProjected without caching anything, in the
// arithmetic SetInferDType selected.
//
// dchag:hotpath — the channel aggregation of every served micro-batch.
func (a *CrossAttention) InferProjected(q, k, v *tensor.Tensor) *tensor.Tensor {
	return a.Wo.Infer(a.core.InferPooled(q, k, v))
}

// BackwardPooled maps the gradient of ForwardPooled's output [B,E] to the
// gradient of its input x, in s, which holds every buffer the call writes.
// x fed all three projections, so its gradient is dq + (dk + dv): Wv's
// product stores dk + dv where dk was, spent by then, and Wq's stores the
// whole sum.
//
// dchag:hotpath — per-step channel-aggregation backward.
func (a *CrossAttention) BackwardPooled(grad *tensor.Tensor, s *PooledGrads) *tensor.Tensor {
	dq, dk, dv := a.BackwardProjected(grad, s)
	ends := s.depthEnds(dk)
	s.dx = a.Wk.backwardTo(s.dx, dk, nil, ends)
	s.dk = a.Wv.backwardTo(s.dk, dv, s.dx, ends)
	s.dx = a.Wq.backwardTo(s.dx, dq, s.dk, s.depthEnds(dq))
	return s.dx
}

// BackwardProjected maps the gradient of ForwardProjected's output [B,E] to
// the gradients of its q, k and v, in s, accumulating Wo's parameter
// gradients; the input projections' are the caller's, who formed q, k and
// v. The three stay in s until its next borrower.
//
// dchag:hotpath — per-step channel-aggregation backward.
func (a *CrossAttention) BackwardProjected(grad *tensor.Tensor, s *PooledGrads) (dq, dk, dv *tensor.Tensor) {
	s.dctx = a.Wo.backwardTo(s.dctx, grad, nil, s.depthEnds(grad))
	return a.core.BackwardPooled(s.dctx, s)
}
