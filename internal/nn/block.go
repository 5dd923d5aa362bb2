package nn

import "repro/internal/tensor"

// TransformerBlock is a pre-norm ViT block:
//
//	x = x + Attn(LN1(x))
//	x = x + MLP(LN2(x))
type TransformerBlock struct {
	Embed, Heads int
	Norm1, Norm2 *LayerNorm
	Attn         *SelfAttention
	FFN          *MLP

	// Grads is the workspace Backward writes every buffer into, its result
	// included. A block is built with one of its own; blocks whose backwards
	// run one after another may share one, as a model's stack does.
	Grads *BlockGrads
}

// NewTransformerBlock constructs a pre-norm transformer block with an MLP
// hidden dimension of 4x embed.
func NewTransformerBlock(name string, embed, heads int, seed int64) *TransformerBlock {
	return &TransformerBlock{
		Embed: embed,
		Heads: heads,
		Norm1: NewLayerNorm(name+".norm1", embed),
		Norm2: NewLayerNorm(name+".norm2", embed),
		Attn:  NewSelfAttention(name+".attn", embed, heads, SubSeed(seed, 0)),
		FFN:   NewMLP(name+".mlp", embed, 4*embed, SubSeed(seed, 1)),
		Grads: new(BlockGrads),
	}
}

// SetInferDType selects the arithmetic of the no-grad Infer path for the
// attention and MLP sublayers; the layer norms always run float64.
func (b *TransformerBlock) SetInferDType(dt tensor.DType) {
	b.Attn.SetInferDType(dt)
	b.FFN.SetInferDType(dt)
}

// Forward applies the block to x of shape [B,T,E]. Each residual sum is
// written by the product that ends its branch: Wo stores x + Attn(LN1 x) in
// its own output, fc2 stores h + MLP(LN2 h) in its, which is returned.
//
// dchag:hotpath — one block per step and layer; no scratch of its own.
func (b *TransformerBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := b.Attn.forward(b.Norm1.Forward(x), x)
	return b.FFN.forward(b.Norm2.Forward(h), h)
}

// Infer applies the block through the sublayers' no-grad fast paths, the
// residual sums formed as in Forward.
//
// dchag:hotpath — the serve dispatch loop runs this once per block per
// micro-batch.
func (b *TransformerBlock) Infer(x *tensor.Tensor) *tensor.Tensor {
	h := b.Attn.infer(b.Norm1.Infer(x), x)
	return b.FFN.infer(b.Norm2.Infer(h), h)
}

// Backward back-propagates through both residual branches in b.Grads.
func (b *TransformerBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return b.Grads.BackwardBlock(grad, b.Norm1, b.Norm2, b.Attn, b.FFN)
}

// Params returns the block's parameters.
func (b *TransformerBlock) Params() []*Param {
	var ps []*Param
	ps = append(ps, b.Norm1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.Norm2.Params()...)
	ps = append(ps, b.FFN.Params()...)
	return ps
}

// BlockGrads is the backward scratch of a pre-norm transformer block: every
// buffer its Backward writes — the MLP's, the attention's (PooledGrads), a
// Swin block's window data movement, the norms' input gradients and the
// residual gradient, which the block returns — grown to each call's shapes.
// Everything but the returned gradient is dead once the block's Backward
// returns, so the blocks of a stack, whose backwards run one after another,
// share one: model.FoundationModel gives every block it builds the same,
// one per rank's model. The returned gradient stays valid until the next
// Backward that borrows the workspace: the block below reads it as its grad
// and overwrites it with its own residual gradient, after its last read. The
// zero value is ready to use.
type BlockGrads struct {
	attn PooledGrads // the attention branch's, its input gradient included
	swin swinScratch // a Swin block's window data movement

	hid    *tensor.Tensor // fc2's input gradient, then GELU's, in place
	branch *tensor.Tensor // fc1's input gradient: the MLP branch's
	norm   *tensor.Tensor // a norm's input gradient
	dh     *tensor.Tensor // the residual gradient: dL/dh, then dL/dx
}

// poison NaN-fills the workspace while lent buffers are poisoned
// (tensor.Poison) as a block borrows it, all but grad, which the block
// below hands over in the residual buffer.
func (ws *BlockGrads) poison(grad *tensor.Tensor) {
	ws.attn.Poison()
	sw, dh := &ws.swin, ws.dh
	if dh == grad {
		dh = nil
	}
	tensor.Poison(sw.shifted, sw.part, sw.merged, sw.unshift, ws.hid, ws.branch, ws.norm, dh)
}

// Projection is a linear map whose backward writes its input gradient into a
// buffer the caller passes (Linear.BackwardTo): a Linear, and the
// tensor-parallel shards of one.
type Projection interface {
	BackwardTo(dx, grad, acc *tensor.Tensor) *tensor.Tensor
}

// Branch is one residual branch of a pre-norm block, its attention or its
// MLP, back-propagated in the block's workspace: BackwardIn returns the
// gradient with respect to the branch's input, held in ws.
type Branch interface {
	BackwardIn(grad *tensor.Tensor, ws *BlockGrads) *tensor.Tensor
}

// BackwardBlock back-propagates the pre-norm block h = x + attn(norm1 x),
// y = h + mlp(norm2 h) from grad = dL/dy in ws and returns dL/dx:
// dh = grad + norm2'(mlp'(grad)), then dx = dh + norm1'(attn'(dh)), each sum
// grad-first as the blocks have always formed it, both in the residual
// buffer. grad may be that buffer, the previous block's result: it is read
// for the last time by the add that overwrites it, element by element. Every
// block kind runs this.
//
// dchag:hotpath — per-step residual gradient adds.
func (ws *BlockGrads) BackwardBlock(grad *tensor.Tensor, norm1, norm2 *LayerNorm, attn, mlp Branch) *tensor.Tensor {
	ws.poison(grad)
	ws.norm = norm2.backwardTo(ws.norm, mlp.BackwardIn(grad, ws))
	ws.dh = tensor.EnsureShape(ws.dh, grad.Shape...)
	tensor.AddInto(ws.dh, grad, ws.norm)
	ws.norm = norm1.backwardTo(ws.norm, attn.BackwardIn(ws.dh, ws))
	return tensor.AddInto(ws.dh, ws.dh, ws.norm)
}

// BackwardMLP back-propagates y = fc2(act(fc1 x)) from grad in ws,
// accumulating both projections' parameter gradients, and returns dL/dx;
// the activation's gradient overwrites fc2's input gradient in place. Under
// tensor parallelism fc1 is a column shard and the result this rank's
// partial sum.
//
// dchag:hotpath — every block's MLP backward, every step.
func (ws *BlockGrads) BackwardMLP(grad *tensor.Tensor, fc1, fc2 Projection, act *GELU) *tensor.Tensor {
	ws.hid = fc2.BackwardTo(ws.hid, grad, nil)
	ws.hid = act.backwardTo(ws.hid, ws.hid)
	ws.branch = fc1.BackwardTo(ws.branch, ws.hid, nil)
	return ws.branch
}

// BackwardAttention back-propagates self-attention
// y = wo(core(wq x, wk x, wv x)) from grad in ws, accumulating the four
// projections' parameter gradients, and returns dL/dx: the three input
// projections' gradients sum as each product stores, (dq + dk) + dv, each
// into a buffer whose operand is already spent. Under tensor parallelism the
// projections are shards, core runs the rank's heads and the result is the
// rank's partial sum.
//
// dchag:hotpath — every block's attention backward, every step.
func (ws *BlockGrads) BackwardAttention(grad *tensor.Tensor, core *AttentionCore, wq, wk, wv, wo Projection) *tensor.Tensor {
	s := &ws.attn
	s.dctx = wo.BackwardTo(s.dctx, grad, nil)
	dq, dk, dv := core.Backward(s.dctx, s)
	s.dx = wq.BackwardTo(s.dx, dq, nil)
	s.dq = wk.BackwardTo(s.dq, dk, s.dx)
	s.dx = wv.BackwardTo(s.dx, dv, s.dq)
	return s.dx
}
