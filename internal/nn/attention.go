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
// per head. A core serves one form at a time.
type AttentionCore struct {
	Heads, HeadDim int

	dtype tensor.DType // arithmetic of the no-grad Infer path

	q, k, v *tensor.Tensor // Forward's operands
	attn    *tensor.Tensor // Forward's softmax weights [N,H,Tq,Tk]
	ctx     *tensor.Tensor // Forward's output
	pbar    *tensor.Tensor // ForwardPooled's pooled weights [N,H,Tk]

	iattn, ictx, ipbar *tensor.Tensor // Infer's twins, separate so an eval pass
	// never clobbers what a pending Backward reads
	dA, dq, dk, dv *tensor.Tensor // Backward scratch
	dpbar          *tensor.Tensor // BackwardPooled's per-location [H,Tk] scratch
}

// SetInferDType selects the arithmetic of Infer's matrix products.
func (c *AttentionCore) SetInferDType(dt tensor.DType) { c.dtype = dt }

// weights grows p to [N,H,Tq,Tk], overwrites it with the attention weights
// softmax(q k^T / sqrt(Dh)) and returns it. The scale rides on the score
// product's tile store; the softmax is float64 under either dtype.
//
// dchag:hotpath — every attention, every step and every served micro-batch.
func (c *AttentionCore) weights(p, q, k *tensor.Tensor, dt tensor.DType) *tensor.Tensor {
	p = tensor.EnsureShape(p, q.Shape[0], c.Heads, q.Shape[1], k.Shape[1])
	scoreProduct := tensor.BatchedMatMulTInto
	if dt == tensor.F32 {
		scoreProduct = tensor.BatchedMatMulTF32Into
	}
	scoreProduct(tensor.MatView(p), tensor.HeadView(q, c.Heads), tensor.HeadView(k, c.Heads), 1/math.Sqrt(float64(c.HeadDim)))
	return tensor.SoftmaxLastDimInto(p, p)
}

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
// scratch).
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
	return c.scoreGrads()
}

// scoreGrads maps the score gradient dS, left in dA by either backward form,
// to dq = dS k / sqrt(Dh) and dk = dS^T q / sqrt(Dh), and returns them with dv.
//
// dchag:hotpath — the last two batched products of every attention backward.
func (c *AttentionCore) scoreGrads() (dq, dk, dv *tensor.Tensor) {
	scale := 1 / math.Sqrt(float64(c.HeadDim))
	dS := tensor.MatView(c.dA)
	c.dq = tensor.EnsureShape(c.dq, c.q.Shape...)
	tensor.BatchedMatMulInto(tensor.HeadView(c.dq, c.Heads), dS, tensor.HeadView(c.k, c.Heads), scale)
	c.dk = tensor.EnsureShape(c.dk, c.k.Shape...)
	tensor.BatchedTMatMulInto(tensor.HeadView(c.dk, c.Heads), dS, tensor.HeadView(c.q, c.Heads), scale)
	return c.dq, c.dk, c.dv
}

// ForwardPooled returns the mean over the Tq query rows of Forward's merged
// context, [N,E] (core-owned scratch), without forming that context; it
// caches the attention weights and their pooled map for BackwardPooled.
func (c *AttentionCore) ForwardPooled(q, k, v *tensor.Tensor) *tensor.Tensor {
	c.q, c.k, c.v = q, k, v
	c.attn = c.weights(c.attn, q, k, tensor.F64)
	c.pbar = tensor.EnsureShape(c.pbar, q.Shape[0], c.Heads, k.Shape[1])
	c.ctx = tensor.EnsureShape(c.ctx, q.Shape[0], q.Shape[2])
	c.pool(c.pbar, c.ctx, c.attn, v)
	return c.ctx
}

// InferPooled computes ForwardPooled's output without caching anything for
// BackwardPooled. Under dtype F32 the score product runs in float32; the
// pooled value product, O(Tk*E) per location, stays float64.
func (c *AttentionCore) InferPooled(q, k, v *tensor.Tensor) *tensor.Tensor {
	c.iattn = c.weights(c.iattn, q, k, c.dtype)
	c.ipbar = tensor.EnsureShape(c.ipbar, q.Shape[0], c.Heads, k.Shape[1])
	c.ictx = tensor.EnsureShape(c.ictx, q.Shape[0], q.Shape[2])
	c.pool(c.ipbar, c.ictx, c.iattn, v)
	return c.ictx
}

// pool overwrites pbar with the mean of the attention weights p over the
// query axis and cbar with the pooled context pbar_h @ v_h. Both reductions
// run in a fixed order — query rows ascending into pbar, key rows ascending
// into cbar — one location at a time, so a row's result does not depend on N
// or on how a batch is split.
//
// dchag:hotpath — every channel aggregation, every step and every served
// micro-batch.
func (c *AttentionCore) pool(pbar, cbar, p, v *tensor.Tensor) {
	n, tq, tk := p.Shape[0], p.Shape[2], p.Shape[3]
	h, dh := c.Heads, c.HeadDim
	e := h * dh
	inv := 1 / float64(tq)
	for ni := 0; ni < n; ni++ {
		pn := pbar.Data[ni*h*tk : (ni+1)*h*tk]
		for hi := 0; hi < h; hi++ {
			ph := p.Data[(ni*h+hi)*tq*tk : (ni*h+hi+1)*tq*tk]
			pb := pn[hi*tk : (hi+1)*tk]
			copy(pb, ph[:tk])
			for i := 1; i < tq; i++ {
				for j, w := range ph[i*tk : (i+1)*tk] {
					pb[j] += w
				}
			}
			for j := range pb {
				pb[j] *= inv
			}
		}
		crow := cbar.Data[ni*e : (ni+1)*e]
		clear(crow)
		for j := 0; j < tk; j++ {
			vrow := v.Data[(ni*tk+j)*e : (ni*tk+j+1)*e]
			for hi := 0; hi < h; hi++ {
				w := pn[hi*tk+j]
				ch := crow[hi*dh : (hi+1)*dh]
				for d, x := range vrow[hi*dh : (hi+1)*dh] {
					ch[d] += w * x
				}
			}
		}
	}
}

// BackwardPooled maps the pooled-context gradient [N,E] to gradients with
// respect to ForwardPooled's q, k and v, each in its operand's layout
// (core-owned scratch): dv_h[j] = pbar_h[j] * dc_h, dpbar_h[j] = dc_h . v_h[j],
// and every query row's softmax backward reads the same upstream row
// dpbar_h / Tq.
//
// dchag:hotpath — per-step channel-aggregation backward kernels.
func (c *AttentionCore) BackwardPooled(dcbar *tensor.Tensor) (dq, dk, dv *tensor.Tensor) {
	if c.attn == nil || c.pbar == nil {
		panic("nn: pooled attention backward before pooled forward")
	}
	n, tq, tk := c.q.Shape[0], c.q.Shape[1], c.k.Shape[1]
	h, dh := c.Heads, c.HeadDim
	e := h * dh
	c.dA = tensor.EnsureShape(c.dA, c.attn.Shape...)
	c.dv = tensor.EnsureShape(c.dv, c.v.Shape...)
	c.dpbar = tensor.EnsureShape(c.dpbar, h, tk)
	inv := 1 / float64(tq)
	for ni := 0; ni < n; ni++ {
		dc := dcbar.Data[ni*e : (ni+1)*e]
		pn := c.pbar.Data[ni*h*tk : (ni+1)*h*tk]
		for j := 0; j < tk; j++ {
			vrow := c.v.Data[(ni*tk+j)*e : (ni*tk+j+1)*e]
			dvrow := c.dv.Data[(ni*tk+j)*e : (ni*tk+j+1)*e]
			for hi := 0; hi < h; hi++ {
				w := pn[hi*tk+j]
				vh, dvh := vrow[hi*dh:(hi+1)*dh], dvrow[hi*dh:(hi+1)*dh]
				s := 0.0
				for d, g := range dc[hi*dh : (hi+1)*dh] {
					dvh[d] = w * g
					s += g * vh[d]
				}
				c.dpbar.Data[hi*tk+j] = s * inv
			}
		}
		for hi := 0; hi < h; hi++ {
			gy := c.dpbar.Data[hi*tk : (hi+1)*tk]
			p := c.attn.Data[(ni*h+hi)*tq*tk : (ni*h+hi+1)*tq*tk]
			ds := c.dA.Data[(ni*h+hi)*tq*tk : (ni*h+hi+1)*tq*tk]
			for i := 0; i < tq; i++ {
				pr, dr := p[i*tk:(i+1)*tk], ds[i*tk:(i+1)*tk]
				dot := 0.0
				for j, w := range pr {
					dot += w * gy[j]
				}
				for j, w := range pr {
					dr[j] = w * (gy[j] - dot)
				}
			}
		}
	}
	return c.scoreGrads()
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
	dq, dk, dv := a.core.BackwardPooled(a.Wo.Backward(grad))
	dQuery = a.Wq.Backward(dq)
	dContext = a.Wk.Backward(dk)
	tensor.AddInPlace(dContext, a.Wv.Backward(dv))
	return dQuery, dContext
}
