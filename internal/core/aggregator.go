// Package core implements the paper's primary contribution: Distributed
// Cross-Channel Hierarchical Aggregation (D-CHAG, Sec. 3).
//
// The package provides, bottom-up:
//
//   - group aggregators (cross-attention and lightweight linear) that reduce
//     a group of channel tokens to a single token (Sec. 3.2, Fig. 3); the
//     cross-attention ones keep the g x g attention map but pool it over the
//     query axis before the value product, so nothing of shape [N, g, E] is
//     computed after the Q/K/V projections (DESIGN.md "Channel aggregation:
//     pooled attention");
//   - the serial HierarchicalAggregator, a tree of group aggregators that
//     turns the quadratic-in-channels memory of single-layer cross-attention
//     into linear (Sec. 3.2); it owns the first-level groups' inputs
//     [N, g, E] and walks the tree in place;
//   - LocalStage, the communication-free front half every stage type shares:
//     the tokenizer writes each channel's tokens, bias and channel-ID row
//     added on the way, straight into the group input that reads them, and
//     reads their gradient where the aggregators leave it — the channel-token
//     tensor is written once per pass and never copied, and not at all by a
//     no-grad pass over linear aggregators (DESIGN.md "Channel stage: one
//     token layout");
//   - DistTokenizer, distributed tokenization alone (Sec. 3.1), which
//     AllGathers every channel's tokens and is the strawman the paper shows
//     does not pay off (Fig. 8);
//   - DCHAG, the full method (Sec. 3.3, Fig. 4): a LocalStage over the rank's
//     channel shard, an AllGather of exactly one token per partition, and a
//     final cross-attention layer whose parameters are replicated so the
//     backward pass needs no communication at all;
//   - Reference, the mathematically identical single-process model (a
//     LocalStage over every partition, then the final layer) used by the
//     tests to prove distributed == serial, bit for bit.
package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// LayerKind selects the layer type used inside the partial-channel
// aggregation module: the paper's D-CHAG-C uses cross-attention layers,
// D-CHAG-L replaces them with lightweight linear layers (Sec. 3.3). The
// final, shared aggregation layer is always cross-attention.
type LayerKind int

// Partial-layer kinds.
const (
	// KindCross uses cross-attention group aggregators (D-CHAG-C).
	KindCross LayerKind = iota
	// KindLinear uses learned linear channel mixing (D-CHAG-L).
	KindLinear
	// KindPerceiver uses Perceiver-style latent-query fusion, the module the
	// paper's Sec. 3.5 discusses via Aurora. An extension beyond the paper's
	// -C/-L variants; DefaultPerceiverLatents latent tokens per group.
	KindPerceiver
)

// DefaultPerceiverLatents is the latent-token count of KindPerceiver
// partial layers.
const DefaultPerceiverLatents = 4

// String returns the paper's suffix for the kind ("-C" / "-L").
func (k LayerKind) String() string {
	switch k {
	case KindCross:
		return "C"
	case KindLinear:
		return "L"
	case KindPerceiver:
		return "P"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// GroupAggregator reduces a group of g channel tokens [N, g, E] to one token
// [N, E]. N is the folded batch*spatial dimension: aggregation is
// independent per spatial location, exactly like the paper's channel
// aggregation module.
type GroupAggregator interface {
	// Forward reduces x [N, g, E] to [N, E].
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward maps d [N, E] back to [N, g, E], accumulating parameter
	// gradients.
	Backward(d *tensor.Tensor) *tensor.Tensor
	// Params returns the aggregator's learnable parameters.
	Params() []*nn.Param
}

// CrossAttnAggregator reduces a channel group with one cross-attention layer
// in which the channel tokens attend to each other (queries = keys = values
// = the group's tokens, a g x g attention map — the quadratic memory the
// paper attributes to the channel aggregation module) and the group's mean
// output token is the result. Only that mean is computed: the layer takes it
// on the attention weights (nn.CrossAttention.ForwardPooled), so the value
// product and the output projection run on one token per location, not g.
type CrossAttnAggregator struct {
	Group int
	Attn  *nn.CrossAttention

	n int // folded rows of the last Forward; 0 before the first
}

// NewCrossAttnAggregator builds a cross-attention aggregator over a group of
// the given size.
func NewCrossAttnAggregator(name string, group, embed, heads int, seed int64) *CrossAttnAggregator {
	return &CrossAttnAggregator{
		Group: group,
		Attn:  nn.NewCrossAttention(name, embed, heads, seed),
	}
}

// Forward reduces x [N, g, E] to [N, E].
func (a *CrossAttnAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: CrossAttnAggregator.Forward want [N,%d,E], got %v", a.Group, x.Shape))
	}
	a.n = x.Shape[0]
	return a.Attn.ForwardPooled(x, x)
}

// Backward maps d [N, E] to the group input gradient [N, g, E]: the group is
// query and context at once, so its gradient is dq + (dk + dv), summed as
// the projections' products store (nn.CrossAttention.BackwardPooledSelf).
//
// dchag:hotpath — per-step channel-aggregation backward.
func (a *CrossAttnAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	if a.n == 0 {
		panic("core: CrossAttnAggregator.Backward before Forward")
	}
	return a.Attn.BackwardPooledSelf(d)
}

// Infer reduces x [N, g, E] to [N, E] without caching activations for
// backward.
func (a *CrossAttnAggregator) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: CrossAttnAggregator.Infer want [N,%d,E], got %v", a.Group, x.Shape))
	}
	return a.Attn.InferPooled(x, x)
}

// SetInferDType selects the arithmetic of the no-grad Infer path for the
// cross-attention layer.
func (a *CrossAttnAggregator) SetInferDType(dt tensor.DType) { a.Attn.SetInferDType(dt) }

// Params returns the attention parameters.
func (a *CrossAttnAggregator) Params() []*nn.Param { return a.Attn.Params() }

// LinearAggregator reduces a channel group with a learned linear combination
// across the channel axis: out[n,e] = sum_g w[g] * x[n,g,e] + b[e]. This is
// the "lightweight linear layer" of D-CHAG-L: g+E parameters instead of the
// 4E^2 of a cross-attention layer, and O(g) instead of O(g^2) activation
// memory.
type LinearAggregator struct {
	Group  int
	Weight *nn.Param // [g]
	Bias   *nn.Param // [E]

	x *tensor.Tensor

	out, iout *tensor.Tensor // Forward / Infer output scratch
	dx        *tensor.Tensor // Backward scratch
}

// NewLinearAggregator builds a linear aggregator initialized near the mean
// (w = 1/g plus small seeded noise) with zero bias.
func NewLinearAggregator(name string, group, embed int, seed int64) *LinearAggregator {
	rng := tensor.NewRNG(seed)
	w := tensor.New(group)
	for i := range w.Data {
		w.Data[i] = 1/float64(group) + 0.01*rng.NormFloat64()
	}
	return &LinearAggregator{
		Group:  group,
		Weight: nn.NewParam(name+".weight", w),
		Bias:   nn.NewParam(name+".bias", tensor.New(embed)),
	}
}

// Forward reduces x [N, g, E] to [N, E].
func (a *LinearAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: LinearAggregator.Forward want [N,%d,E], got %v", a.Group, x.Shape))
	}
	a.x = x
	a.out = tensor.EnsureShape(a.out, x.Shape[0], x.Shape[2])
	return a.reduce(a.out, x)
}

// Infer reduces x [N, g, E] to [N, E] without caching the input for
// backward.
func (a *LinearAggregator) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: LinearAggregator.Infer want [N,%d,E], got %v", a.Group, x.Shape))
	}
	a.iout = tensor.EnsureShape(a.iout, x.Shape[0], x.Shape[2])
	return a.reduce(a.iout, x)
}

// reduce applies the learned linear combination across the channel axis,
// writing into out: per location the bias, then the g weighted channel
// tokens in order, through the vectorised row-accumulate.
//
// dchag:hotpath — per-step channel mixing; out is layer-owned scratch.
func (a *LinearAggregator) reduce(out, x *tensor.Tensor) *tensor.Tensor {
	n, e := x.Shape[0], x.Shape[2]
	for ni := 0; ni < n; ni++ {
		dst := out.Data[ni*e : (ni+1)*e]
		copy(dst, a.Bias.W.Data)
		tensor.AccumRows(dst, x.Data[ni*a.Group*e:], e, a.Group, a.Weight.W.Data)
	}
	return out
}

// Backward maps d [N, E] to [N, g, E] and accumulates dWeight and dBias.
// Per location it takes four group members per pass over d's row, so four
// dot-product chains are in flight where one left the adder waiting; each
// chain still runs in element order from +0, its products rounded before
// the add, and the members' sums reach dWeight in member order.
//
// dchag:hotpath — per-step channel-mixing backward; dx is layer-owned
// scratch.
func (a *LinearAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	if a.x == nil {
		panic("core: LinearAggregator.Backward before Forward")
	}
	n, e := a.x.Shape[0], a.x.Shape[2]
	a.dx = tensor.EnsureShape(a.dx, n, a.Group, e)
	tensor.AccumRows(a.Bias.Grad.Data, d.Data, e, n, nil)
	for ni := 0; ni < n; ni++ {
		for g := 0; g < a.Group; g += 4 {
			a.backward4(d.Data[ni*e:][:e], ni*a.Group, g)
		}
	}
	return a.dx
}

// backward4 runs group members g..g+3 of the location whose rows start at
// row base of x and dx, src being its row of the output gradient. Members
// past the group repeat the last one, which writes its dx row twice with the
// same bits; only the real members' sums are added to dWeight.
func (a *LinearAggregator) backward4(src []float64, base, g int) {
	e, last := len(src), a.Group-1
	m := [4]int{g, min(g+1, last), min(g+2, last), min(g+3, last)}
	w := a.Weight.W.Data
	w0, w1, w2, w3 := w[m[0]], w[m[1]], w[m[2]], w[m[3]]
	x, dx := a.x.Data, a.dx.Data
	x0, x1, x2, x3 := x[(base+m[0])*e:][:e], x[(base+m[1])*e:][:e], x[(base+m[2])*e:][:e], x[(base+m[3])*e:][:e]
	d0, d1, d2, d3 := dx[(base+m[0])*e:][:e], dx[(base+m[1])*e:][:e], dx[(base+m[2])*e:][:e], dx[(base+m[3])*e:][:e]
	var s0, s1, s2, s3 float64
	for i, v := range src {
		d0[i], d1[i], d2[i], d3[i] = w0*v, w1*v, w2*v, w3*v
		s0 += float64(v * x0[i])
		s1 += float64(v * x1[i])
		s2 += float64(v * x2[i])
		s3 += float64(v * x3[i])
	}
	sums := [4]float64{s0, s1, s2, s3}
	for j, s := range sums[:min(4, a.Group-g)] {
		a.Weight.Grad.Data[g+j] += s
	}
}

// Params returns the weight and bias.
func (a *LinearAggregator) Params() []*nn.Param { return []*nn.Param{a.Weight, a.Bias} }

// newGroupAggregator dispatches on kind.
func newGroupAggregator(name string, kind LayerKind, group, embed, heads int, seed int64) GroupAggregator {
	switch kind {
	case KindCross:
		return NewCrossAttnAggregator(name, group, embed, heads, seed)
	case KindLinear:
		return NewLinearAggregator(name, group, embed, seed)
	case KindPerceiver:
		return NewPerceiverAggregator(name, group, DefaultPerceiverLatents, embed, heads, seed)
	default:
		panic(fmt.Sprintf("core: unknown LayerKind %d", kind))
	}
}
