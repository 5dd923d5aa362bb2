package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// PerceiverAggregator reduces a channel group with a Perceiver-style fusion
// layer (paper Sec. 3.5: Aurora uses the Perceiver as its fusion module): M
// learned latent tokens cross-attend to the group's channel tokens and the
// latents' mean is the aggregated representation (taken on the attention
// weights, like CrossAttnAggregator's).
//
// Its attention map is M x g — between the linear cost of LinearAggregator
// and the quadratic cost of CrossAttnAggregator — making it the natural
// middle point of the design space the paper sketches. It satisfies
// GroupAggregator, so it can serve as the partial-channel layer of D-CHAG
// (KindPerceiver) with all distribution properties intact.
type PerceiverAggregator struct {
	Group   int
	Latents *nn.Param // [M, E] learned queries
	Attn    *nn.CrossAttention

	n int // folded rows of the last Forward; 0 before the first

	q, iq *tensor.Tensor // broadcast latent queries (forward / infer)
}

// NewPerceiverAggregator builds a Perceiver fusion layer with m latent
// tokens over groups of the given size.
func NewPerceiverAggregator(name string, group, latents, embed, heads int, seed int64) *PerceiverAggregator {
	if latents < 1 {
		panic(fmt.Sprintf("core: perceiver needs at least one latent, got %d", latents))
	}
	rng := tensor.NewRNG(nn.SubSeed(seed, 1))
	return &PerceiverAggregator{
		Group:   group,
		Latents: nn.NewParam(name+".latents", tensor.RandnScaled(rng, 0.02, latents, embed)),
		Attn:    nn.NewCrossAttention(name+".xattn", embed, heads, nn.SubSeed(seed, 0)),
	}
}

// GroupSize returns the group size.
func (a *PerceiverAggregator) GroupSize() int { return a.Group }

// Forward reduces x [N, g, E] to [N, E]: the latents (broadcast over N)
// attend to the group tokens, and the latent outputs are averaged.
func (a *PerceiverAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: PerceiverAggregator.Forward want [N,%d,E], got %v", a.Group, x.Shape))
	}
	a.n = x.Shape[0]
	a.q = tensor.EnsureShape(a.q, a.n, a.Latents.W.Shape[0], x.Shape[2])
	broadcastRows(a.q, a.Latents.W.Data, a.n)
	return a.Attn.ForwardPooled(a.q, x)
}

// Infer reduces x [N, g, E] to [N, E] without caching activations for
// backward.
func (a *PerceiverAggregator) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: PerceiverAggregator.Infer want [N,%d,E], got %v", a.Group, x.Shape))
	}
	n := x.Shape[0]
	a.iq = tensor.EnsureShape(a.iq, n, a.Latents.W.Shape[0], x.Shape[2])
	broadcastRows(a.iq, a.Latents.W.Data, n)
	return a.Attn.InferPooled(a.iq, x)
}

// SetInferDType selects the arithmetic of the no-grad Infer path for the
// cross-attention layer.
func (a *PerceiverAggregator) SetInferDType(dt tensor.DType) { a.Attn.SetInferDType(dt) }

// broadcastRows tiles row (one latent block) n times into dst.
//
// dchag:hotpath — per-step latent broadcast.
func broadcastRows(dst *tensor.Tensor, row []float64, n int) {
	for i := 0; i < n; i++ {
		copy(dst.Data[i*len(row):(i+1)*len(row)], row)
	}
}

// Backward maps d [N, E] to the group input gradient [N, g, E], accumulating
// latent and attention gradients.
//
// dchag:hotpath — per-step latent-gradient row sum.
func (a *PerceiverAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	if a.n == 0 {
		panic("core: PerceiverAggregator.Backward before Forward")
	}
	dq, dkv := a.Attn.BackwardPooled(d)
	// The latents were broadcast over N rows; their gradient sums over rows.
	lg := a.Latents.Grad.Data
	for n := 0; n < a.n; n++ {
		for i, v := range dq.Data[n*len(lg) : (n+1)*len(lg)] {
			lg[i] += v
		}
	}
	return dkv
}

// Params returns the latents and the attention parameters.
func (a *PerceiverAggregator) Params() []*nn.Param {
	return append([]*nn.Param{a.Latents}, a.Attn.Params()...)
}
