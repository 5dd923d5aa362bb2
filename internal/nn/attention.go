package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// AttentionCore is the scaled-dot-product attention softmax(q k^T / sqrt(Dh)) v
// over already-projected sequences q [N,Tq,E], k and v [N,Tk,E] with
// E = Heads*HeadDim — the one attention product in the repository, shared by
// self- and cross-attention here and by the tensor- and sequence-parallel
// layers in internal/parallel (which pass their local heads). Heads are never
// made contiguous: the batched kernels read each head out of the projection
// outputs through a tensor.HeadView and write the context straight into the
// merged [N,Tq,E] layout, so kernel packing is the only data movement.
//
// Forward keeps references to q, k and v for Backward instead of copying
// them; like every layer input they must stay unmodified until Backward has
// run (the single-stream contract in the package doc).
type AttentionCore struct {
	Heads, HeadDim int

	dtype tensor.DType // arithmetic of the no-grad Infer path

	q, k, v *tensor.Tensor // Forward's operands
	attn    *tensor.Tensor // softmax weights [N,H,Tq,Tk] (aliases scores)

	scores, ctx  *tensor.Tensor // Forward scratch
	iscore, ictx *tensor.Tensor // Infer scratch, separate so an eval pass never
	// clobbers the attn cache a pending Backward reads
	dA, dq, dk, dv *tensor.Tensor // Backward scratch
}

// SetInferDType selects the arithmetic of Infer's two matrix products.
func (c *AttentionCore) SetInferDType(dt tensor.DType) { c.dtype = dt }

// Forward returns the merged context [N,Tq,E] (core-owned scratch), caching
// the attention weights for Backward.
func (c *AttentionCore) Forward(q, k, v *tensor.Tensor) *tensor.Tensor {
	c.q, c.k, c.v = q, k, v
	c.scores = tensor.EnsureShape(c.scores, q.Shape[0], c.Heads, q.Shape[1], k.Shape[1])
	c.ctx = tensor.EnsureShape(c.ctx, q.Shape...)
	c.attend(c.scores, c.ctx, q, k, v, tensor.F64)
	c.attn = c.scores
	return c.ctx
}

// Infer computes Forward's output without caching anything for Backward.
// Under dtype F32 the two matrix products run in float32; the softmax stays
// float64.
func (c *AttentionCore) Infer(q, k, v *tensor.Tensor) *tensor.Tensor {
	c.iscore = tensor.EnsureShape(c.iscore, q.Shape[0], c.Heads, q.Shape[1], k.Shape[1])
	c.ictx = tensor.EnsureShape(c.ictx, q.Shape...)
	c.attend(c.iscore, c.ictx, q, k, v, c.dtype)
	return c.ictx
}

// attend overwrites scores with the attention weights and ctx with the
// merged context. The 1/sqrt(Dh) scale rides on the score product's tile
// store.
//
// dchag:hotpath — the attention product of every block and every channel
// aggregation, every step and every served micro-batch.
func (c *AttentionCore) attend(scores, ctx, q, k, v *tensor.Tensor, dt tensor.DType) {
	scale := 1 / math.Sqrt(float64(c.HeadDim))
	sv, qv, kv := tensor.MatView(scores), tensor.HeadView(q, c.Heads), tensor.HeadView(k, c.Heads)
	cv, vv := tensor.HeadView(ctx, c.Heads), tensor.HeadView(v, c.Heads)
	scoreProduct, contextProduct := tensor.BatchedMatMulTInto, tensor.BatchedMatMulInto
	if dt == tensor.F32 {
		scoreProduct, contextProduct = tensor.BatchedMatMulTF32Into, tensor.BatchedMatMulF32Into
	}
	scoreProduct(sv, qv, kv, scale)
	tensor.SoftmaxLastDimInto(scores, scores)
	contextProduct(cv, sv, vv, 1)
}

// Backward maps the merged-context gradient [N,Tq,E] to gradients with
// respect to Forward's q, k and v, each in its operand's layout (core-owned
// scratch).
//
// dchag:hotpath — per-step attention backward kernels.
func (c *AttentionCore) Backward(dctx *tensor.Tensor) (dq, dk, dv *tensor.Tensor) {
	if c.attn == nil {
		panic("nn: attention backward before forward")
	}
	scale := 1 / math.Sqrt(float64(c.HeadDim))
	av, gv := tensor.MatView(c.attn), tensor.HeadView(dctx, c.Heads)
	c.dA = tensor.EnsureShape(c.dA, c.attn.Shape...)
	tensor.BatchedMatMulTInto(tensor.MatView(c.dA), gv, tensor.HeadView(c.v, c.Heads), 1) // [N,H,Tq,Tk]
	c.dv = tensor.EnsureShape(c.dv, c.v.Shape...)
	tensor.BatchedTMatMulInto(tensor.HeadView(c.dv, c.Heads), av, gv, 1)
	dS := tensor.MatView(tensor.SoftmaxBackwardLastDimInto(c.dA, c.attn, c.dA))
	c.dq = tensor.EnsureShape(c.dq, c.q.Shape...)
	tensor.BatchedMatMulInto(tensor.HeadView(c.dq, c.Heads), dS, tensor.HeadView(c.k, c.Heads), scale)
	c.dk = tensor.EnsureShape(c.dk, c.k.Shape...)
	tensor.BatchedTMatMulInto(tensor.HeadView(c.dk, c.Heads), dS, tensor.HeadView(c.q, c.Heads), scale)
	return c.dq, c.dk, c.dv
}

// SelfAttention is a standard multi-head self-attention layer: the ViT
// component of the paper's architecture applies it over spatial tokens.
type SelfAttention struct {
	Embed, Heads int
	Wq, Wk, Wv   *Linear
	Wo           *Linear

	core AttentionCore
}

// NewSelfAttention constructs a multi-head self-attention layer over embed
// dimensions with the given head count.
func NewSelfAttention(name string, embed, heads int, seed int64) *SelfAttention {
	if embed%heads != 0 {
		panic(fmt.Sprintf("nn: embed %d not divisible by heads %d", embed, heads))
	}
	return &SelfAttention{
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
func (a *SelfAttention) SetInferDType(dt tensor.DType) {
	a.Wq.SetInferDType(dt)
	a.Wk.SetInferDType(dt)
	a.Wv.SetInferDType(dt)
	a.Wo.SetInferDType(dt)
	a.core.SetInferDType(dt)
}

// Forward computes multi-head self-attention over x of shape [B,T,E].
func (a *SelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: SelfAttention.Forward requires [B,T,E], got %v", x.Shape))
	}
	return a.Wo.Forward(a.core.Forward(a.Wq.Forward(x), a.Wk.Forward(x), a.Wv.Forward(x)))
}

// Infer computes Forward's output through the projections' no-grad fast
// paths, caching nothing.
func (a *SelfAttention) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: SelfAttention.Infer requires [B,T,E], got %v", x.Shape))
	}
	return a.Wo.Infer(a.core.Infer(a.Wq.Infer(x), a.Wk.Infer(x), a.Wv.Infer(x)))
}

// Backward back-propagates to the forward input, accumulating parameter
// gradients in the four projections.
func (a *SelfAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dq, dk, dv := a.core.Backward(a.Wo.Backward(grad))
	dx := a.Wq.Backward(dq)
	tensor.AddInPlace(dx, a.Wk.Backward(dk))
	tensor.AddInPlace(dx, a.Wv.Backward(dv))
	return dx
}

// Params returns the projection parameters.
func (a *SelfAttention) Params() []*Param {
	var ps []*Param
	ps = append(ps, a.Wq.Params()...)
	ps = append(ps, a.Wk.Params()...)
	ps = append(ps, a.Wv.Params()...)
	ps = append(ps, a.Wo.Params()...)
	return ps
}

// CrossAttention attends a query sequence to a separate key/value context
// sequence. The paper's channel-aggregation module is a cross-attention
// whose query and context are both the per-location channel tokens; its
// output is then reduced across the channel axis.
type CrossAttention struct {
	Embed, Heads int
	Wq, Wk, Wv   *Linear
	Wo           *Linear

	core AttentionCore
}

// NewCrossAttention constructs a multi-head cross-attention layer.
func NewCrossAttention(name string, embed, heads int, seed int64) *CrossAttention {
	if embed%heads != 0 {
		panic(fmt.Sprintf("nn: embed %d not divisible by heads %d", embed, heads))
	}
	return &CrossAttention{
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
func (a *CrossAttention) SetInferDType(dt tensor.DType) {
	a.Wq.SetInferDType(dt)
	a.Wk.SetInferDType(dt)
	a.Wv.SetInferDType(dt)
	a.Wo.SetInferDType(dt)
	a.core.SetInferDType(dt)
}

// Forward computes attention of query [B,Tq,E] over context [B,Tk,E],
// returning [B,Tq,E].
func (a *CrossAttention) Forward(query, context *tensor.Tensor) *tensor.Tensor {
	if len(query.Shape) != 3 || len(context.Shape) != 3 {
		panic(fmt.Sprintf("nn: CrossAttention.Forward requires rank-3 inputs, got %v and %v", query.Shape, context.Shape))
	}
	return a.Wo.Forward(a.core.Forward(a.Wq.Forward(query), a.Wk.Forward(context), a.Wv.Forward(context)))
}

// Infer computes Forward's output through the projections' no-grad fast
// paths, caching nothing.
func (a *CrossAttention) Infer(query, context *tensor.Tensor) *tensor.Tensor {
	if len(query.Shape) != 3 || len(context.Shape) != 3 {
		panic(fmt.Sprintf("nn: CrossAttention.Infer requires rank-3 inputs, got %v and %v", query.Shape, context.Shape))
	}
	return a.Wo.Infer(a.core.Infer(a.Wq.Infer(query), a.Wk.Infer(context), a.Wv.Infer(context)))
}

// Backward returns gradients with respect to the query and context inputs.
func (a *CrossAttention) Backward(grad *tensor.Tensor) (dQuery, dContext *tensor.Tensor) {
	dq, dk, dv := a.core.Backward(a.Wo.Backward(grad))
	dQuery = a.Wq.Backward(dq)
	dContext = a.Wk.Backward(dk)
	tensor.AddInPlace(dContext, a.Wv.Backward(dv))
	return dQuery, dContext
}

// Params returns the projection parameters.
func (a *CrossAttention) Params() []*Param {
	var ps []*Param
	ps = append(ps, a.Wq.Params()...)
	ps = append(ps, a.Wk.Params()...)
	ps = append(ps, a.Wv.Params()...)
	ps = append(ps, a.Wo.Params()...)
	return ps
}
