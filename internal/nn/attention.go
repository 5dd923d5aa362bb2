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
// location by location with every head. A core serves one form at a time.
type AttentionCore struct {
	Heads, HeadDim int

	dtype tensor.DType // arithmetic of the no-grad Infer path

	q, k, v *tensor.Tensor // Forward's operands
	attn    *tensor.Tensor // Forward's or ForwardPooled's softmax weights [N,H,Tq,Tk]
	ctx     *tensor.Tensor // Forward's output
	pbar    *tensor.Tensor // ForwardPooled's pooled weights [N,H,Tk]

	iattn, ictx, ipbar *tensor.Tensor // Infer's twins, separate so an eval pass
	// never clobbers what a pending Backward reads
	dA, dq, dk, dv *tensor.Tensor // Backward scratch (dA: the per-row form's only)
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
// respect to Forward's q, k and v, each in its operand's layout (core-owned
// scratch): dA = dctx v^T, dv = A^T dctx, the softmax backward turns dA into
// the score gradient dS in place, then dq = dS k / sqrt(Dh) and
// dk = dS^T q / sqrt(Dh).
//
// dchag:hotpath — per-step attention backward kernels.
func (c *AttentionCore) Backward(dctx *tensor.Tensor) (dq, dk, dv *tensor.Tensor) {
	if c.attn == nil {
		panic("nn: attention backward before forward")
	}
	av, gv := tensor.MatView(c.attn), tensor.HeadView(dctx, c.Heads)
	c.dA = tensor.EnsureShape(c.dA, c.attn.Shape...)
	tensor.BatchedMatMulTInto(tensor.MatView(c.dA), gv, tensor.HeadView(c.v, c.Heads), 1) // [N,H,Tq,Tk]
	c.dv = tensor.EnsureShape(c.dv, c.v.Shape...)
	tensor.BatchedTMatMulInto(tensor.HeadView(c.dv, c.Heads), av, gv, 1)
	tensor.SoftmaxBackwardLastDimInto(c.dA, c.attn, c.dA)
	dS := tensor.MatView(c.dA)
	c.dq = tensor.EnsureShape(c.dq, c.q.Shape...)
	tensor.BatchedMatMulInto(tensor.HeadView(c.dq, c.Heads), dS, tensor.HeadView(c.k, c.Heads), c.scale())
	c.dk = tensor.EnsureShape(c.dk, c.k.Shape...)
	tensor.BatchedTMatMulInto(tensor.HeadView(c.dk, c.Heads), dS, tensor.HeadView(c.q, c.Heads), c.scale())
	return c.dq, c.dk, c.dv
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
// respect to ForwardPooled's q, k and v, each in its operand's layout
// (core-owned scratch), through tensor.PooledAttentionBackward: the score
// gradient lives per location in the pass's scratch, and the cached map is
// left intact, so BackwardPooled may run more than once per forward.
//
// dchag:hotpath — per-step channel-aggregation backward.
func (c *AttentionCore) BackwardPooled(dcbar *tensor.Tensor) (dq, dk, dv *tensor.Tensor) {
	if c.attn == nil || c.pbar == nil {
		panic("nn: pooled attention backward before pooled forward")
	}
	c.dq = tensor.EnsureShape(c.dq, c.q.Shape...)
	c.dk = tensor.EnsureShape(c.dk, c.k.Shape...)
	c.dv = tensor.EnsureShape(c.dv, c.v.Shape...)
	tensor.PooledAttentionBackward(tensor.HeadView(c.dq, c.Heads), tensor.HeadView(c.dk, c.Heads), tensor.HeadView(c.dv, c.Heads),
		dcbar, c.pbar, c.attn, tensor.HeadView(c.q, c.Heads), tensor.HeadView(c.k, c.Heads), tensor.HeadView(c.v, c.Heads), c.scale())
	return c.dq, c.dk, c.dv
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

// Backward back-propagates to the forward input, accumulating parameter
// gradients in the four projections. The three projections' input
// gradients sum as each product stores, (dq + dk) + dv.
func (a *SelfAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dq, dk, dv := a.core.Backward(a.Wo.Backward(grad))
	return a.Wv.BackwardAdd(dv, a.Wk.BackwardAdd(dk, a.Wq.Backward(dq)))
}

// CrossAttention attends a query sequence to a separate key/value context
// sequence. The paper's channel-aggregation module is a cross-attention
// whose query and context are both the per-location channel tokens; its
// output is then reduced across the channel axis, and that reduced output is
// the only one the layer computes.
type CrossAttention struct{ attnProj }

// NewCrossAttention constructs a multi-head cross-attention layer.
func NewCrossAttention(name string, embed, heads int, seed int64) *CrossAttention {
	return &CrossAttention{newAttnProj(name, embed, heads, seed)}
}

// ForwardPooled attends query [B,Tq,E] to context [B,Tk,E] and returns the
// mean of the Tq output tokens, [B,E]. The mean commutes with the value
// product and the output projection, so it is taken on the attention weights
// (AttentionCore.ForwardPooled) and Wo runs over B rows, not B*Tq.
func (a *CrossAttention) ForwardPooled(query, context *tensor.Tensor) *tensor.Tensor {
	if len(query.Shape) != 3 || len(context.Shape) != 3 {
		panic(fmt.Sprintf("nn: CrossAttention.ForwardPooled requires rank-3 inputs, got %v and %v", query.Shape, context.Shape))
	}
	return a.Wo.Forward(a.core.ForwardPooled(a.Wq.Forward(query), a.Wk.Forward(context), a.Wv.Forward(context)))
}

// InferPooled computes ForwardPooled's output through the projections'
// no-grad fast paths, caching nothing.
func (a *CrossAttention) InferPooled(query, context *tensor.Tensor) *tensor.Tensor {
	if len(query.Shape) != 3 || len(context.Shape) != 3 {
		panic(fmt.Sprintf("nn: CrossAttention.InferPooled requires rank-3 inputs, got %v and %v", query.Shape, context.Shape))
	}
	return a.Wo.Infer(a.core.InferPooled(a.Wq.Infer(query), a.Wk.Infer(context), a.Wv.Infer(context)))
}

// BackwardPooled maps the gradient of ForwardPooled's output [B,E] to
// gradients with respect to the query and context inputs.
func (a *CrossAttention) BackwardPooled(grad *tensor.Tensor) (dQuery, dContext *tensor.Tensor) {
	dq, dContext := a.backwardPooled(grad)
	return a.Wq.Backward(dq), dContext
}

// BackwardPooledSelf is BackwardPooled after a forward whose query and
// context were one tensor: it returns that tensor's gradient, dQuery +
// dContext, the sum formed as Wq's product stores.
func (a *CrossAttention) BackwardPooledSelf(grad *tensor.Tensor) *tensor.Tensor {
	dq, dContext := a.backwardPooled(grad)
	return a.Wq.BackwardAdd(dq, dContext)
}

// backwardPooled runs the pooled backward through Wo, the attention core,
// Wk and Wv, and returns the gradient with respect to the query projection's
// output and the context's gradient, dk + dv summed as Wv's product stores.
func (a *CrossAttention) backwardPooled(grad *tensor.Tensor) (dq, dContext *tensor.Tensor) {
	dq, dk, dv := a.core.BackwardPooled(a.Wo.Backward(grad))
	return dq, a.Wv.BackwardAdd(dv, a.Wk.Backward(dk))
}
