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

	dh, dx *tensor.Tensor // residual scratch (backward)
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

// Backward back-propagates through both residual branches.
//
// dchag:hotpath — per-step residual gradient adds.
func (b *TransformerBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	// Second residual: dh = grad + dLN2->MLP path.
	b.dh = tensor.EnsureShape(b.dh, grad.Shape...)
	tensor.AddInto(b.dh, grad, b.Norm2.Backward(b.FFN.Backward(grad)))
	// First residual: dx = dh + dLN1->Attn path.
	b.dx = tensor.EnsureShape(b.dx, grad.Shape...)
	return tensor.AddInto(b.dx, b.dh, b.Norm1.Backward(b.Attn.Backward(b.dh)))
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
