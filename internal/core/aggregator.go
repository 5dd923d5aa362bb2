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
//   - the serial HierarchicalAggregator, the paper's Tree0 (one group
//     aggregator over every channel) or TreeN (N first-level groups under
//     one reducer), which turns the quadratic-in-channels memory of
//     single-layer cross-attention into linear (Sec. 3.2); its first level
//     writes the group tokens where the reducer, or the module's output,
//     reads them;
//   - the D-CHAG stage's communication-free front half (localStage): the
//     tokenizer folded into the first level, which forms each group's
//     output from the channels' patches — a cross first level through
//     its Q/K/V projections (fold.go), in the one Q/K/V buffer the stage
//     lends every group of every pass, a linear one by adding each token,
//     weighted, where it is formed — so no pass writes a channel token
//     (DESIGN.md "Channel stage: one token layout"); its backward borrows
//     the stage's two workspaces, the first level's and the reducers';
//   - DistTokenizer, distributed tokenization alone (Sec. 3.1), which
//     AllGathers every channel's tokens and is the strawman the paper shows
//     does not pay off (Fig. 8);
//   - DCHAG, the full method (Sec. 3.3, Fig. 4): the front half over the
//     rank's channel shard, an AllGather of exactly one token per partition,
//     and a final cross-attention layer whose parameters are replicated so
//     the backward pass needs no communication at all. On a one-rank group it
//     is the serial model, every partition in one process, which the tests
//     hold bit for bit to the same model over 2 and 4 ranks; at one
//     partition it is the paper's baseline (Fig. 1), one aggregation module
//     over every channel with no final layer.
package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// LayerKind selects the layer type used inside the partial-channel
// aggregation module: the paper's D-CHAG-C uses cross-attention layers,
// D-CHAG-L replaces them with lightweight linear layers (Sec. 3.3). Those
// are the only two kinds; Config.Validate refuses any other value. The
// final, shared aggregation layer is always cross-attention.
type LayerKind int

// Partial-layer kinds.
const (
	// KindCross uses cross-attention group aggregators (D-CHAG-C).
	KindCross LayerKind = iota
	// KindLinear uses learned linear channel mixing (D-CHAG-L).
	KindLinear
)

// String returns the paper's suffix for the kind ("-C" / "-L").
func (k LayerKind) String() string {
	switch k {
	case KindCross:
		return "C"
	case KindLinear:
		return "L"
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
	// Infer is Forward without caching activations for backward.
	Infer(x *tensor.Tensor) *tensor.Tensor
	// backward maps d [N, E] to the group's input gradient, token-major
	// [g, N, E]: member k's N rows in slot k, which its consumer reads in
	// place. It accumulates parameter gradients. Every buffer it writes is
	// ws's, the returned gradient included, which stays valid until ws is
	// lent again.
	backward(d *tensor.Tensor, ws *workspace) *tensor.Tensor
	// Params returns the aggregator's learnable parameters.
	Params() []*nn.Param
}

// workspace is the backward scratch a group aggregator borrows for one call:
// every buffer its backward writes, the group's input gradient included,
// but a cross aggregator's dQ, dK and dV, which its pooled attention writes
// over the Q, K and V it consumes (at a stage's first level, in the stage's
// Q/K/V buffer). Whoever runs the aggregators owns it. The D-CHAG stage
// owns two, one for the first level and one for the reducers, each lent to
// that level's aggregators of every partition in turn: a reducer's input
// gradient stays in its workspace while the first level, below it, reads
// each group's slot of it in place; each first-level group's own gradients
// are consumed by the tokenizer's before the next group runs. On entry a
// borrower reads only what it is handed, never an earlier borrower's
// leftovers, which poison checks (tensor.WithPoisonedLends). An aggregator
// run alone, like a stage's final layer, owns its own
// (CrossAttnAggregator.Backward). The zero value is ready to use.
type workspace struct {
	attn nn.PooledGrads // the CrossAttnAggregator's
	fold foldGrads      // a folded first-level CrossAttnAggregator's, beside attn
	lin  linearGrads    // a folded first-level LinearAggregator's
	dx   *tensor.Tensor // the LinearAggregator's input gradient
	dg   tensor.Tensor  // the first level's header: one group's output gradient [N, E], its slot of the reducer's input gradient
}

// poison NaN-fills every buffer of ws while lent buffers are poisoned
// (tensor.Poison), as its lender hands it to the next borrower
// (HierarchicalAggregator.backward).
func (ws *workspace) poison() {
	ws.attn.Poison()
	f, l := &ws.fold, &ws.lin
	tensor.Poison(f.gs[0], f.gs[1], f.gs[2], f.d[0], f.d[1], l.s, l.u, l.g, ws.dx)
}

// CrossAttnAggregator reduces a channel group with one cross-attention layer
// in which the channel tokens attend to each other (queries = keys = values
// = the group's tokens, a g x g attention map — the quadratic memory the
// paper attributes to the channel aggregation module) and the group's mean
// output token is the result. Only that mean is computed: the layer takes it
// on the attention weights (nn.CrossAttention.ForwardPooled), so the value
// product and the output projection run on one token per location, not g.
// At a D-CHAG stage's first level the stage runs it with the tokenizer
// folded into its Q/K/V projections (foldForward, foldBackward): it never
// sees a token there.
type CrossAttnAggregator struct {
	Group int
	Attn  *nn.CrossAttention

	n   int       // folded rows of the last Forward; 0 before the first
	own workspace // Backward's; a tree lends its level's instead
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
	return a.Attn.ForwardPooled(x)
}

// Backward maps d [N, E] to the group input gradient, token-major
// [g, N, E], in the aggregator's own scratch: the path of an aggregator run
// alone, like a stage's final layer.
func (a *CrossAttnAggregator) Backward(d *tensor.Tensor) *tensor.Tensor { return a.backward(d, &a.own) }

// backward is Backward in ws: the group is query and context at once, so
// each member's gradient is dq + (dk + dv), summed as the projections'
// products store (nn.CrossAttention.BackwardTokens over every member).
//
// dchag:hotpath — per-step channel-aggregation backward.
func (a *CrossAttnAggregator) backward(d *tensor.Tensor, ws *workspace) *tensor.Tensor {
	if a.n == 0 {
		panic("core: CrossAttnAggregator.Backward before Forward")
	}
	return a.Attn.BackwardTokens(d, &ws.attn, 0, a.Group)
}

// Infer reduces x [N, g, E] to [N, E] without caching activations for
// backward.
func (a *CrossAttnAggregator) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: CrossAttnAggregator.Infer want [N,%d,E], got %v", a.Group, x.Shape))
	}
	return a.Attn.InferPooled(x)
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
// memory. At a D-CHAG stage's first level the stage runs it with the
// tokenizer folded in (accumulateLinear, linearFoldBackward): it never sees
// a token there.
type LinearAggregator struct {
	Group  int
	Weight *nn.Param // [g]
	Bias   *nn.Param // [E]

	x *tensor.Tensor

	out, iout *tensor.Tensor // Forward / Infer output scratch
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

// backward maps d [N, E] to the token-major [g, N, E] in ws and accumulates
// dWeight and dBias. Per location it takes four group members per pass over
// d's row, so four dot-product chains are in flight where one left the adder
// waiting; each chain still runs in element order from +0, its products
// rounded before the add, and the members' sums reach dWeight in member
// order.
//
// dchag:hotpath — per-step channel-mixing backward.
func (a *LinearAggregator) backward(d *tensor.Tensor, ws *workspace) *tensor.Tensor {
	if a.x == nil {
		panic("core: LinearAggregator.Backward before Forward")
	}
	n, e := a.x.Shape[0], a.x.Shape[2]
	ws.dx = tensor.EnsureShape(ws.dx, a.Group, n, e)
	tensor.AccumRows(a.Bias.Grad.Data, d.Data, e, n, nil)
	for ni := 0; ni < n; ni++ {
		for g := 0; g < a.Group; g += 4 {
			a.backward4(ws.dx.Data, d.Data[ni*e:][:e], n, ni, g)
		}
	}
	return ws.dx
}

// backward4 runs group members g..g+3 of location ni of n, src being its row
// of the output gradient: member m's row is x's (ni·g + m) and dx's
// (m·n + ni). Members past the group repeat the last one, which writes its
// dx row twice with the same bits; only the real members' sums are added to
// dWeight.
func (a *LinearAggregator) backward4(dx, src []float64, n, ni, g int) {
	e, last := len(src), a.Group-1
	m := [4]int{g, min(g+1, last), min(g+2, last), min(g+3, last)}
	w := a.Weight.W.Data
	w0, w1, w2, w3 := w[m[0]], w[m[1]], w[m[2]], w[m[3]]
	x, xb := a.x.Data, ni*a.Group
	x0, x1, x2, x3 := x[(xb+m[0])*e:][:e], x[(xb+m[1])*e:][:e], x[(xb+m[2])*e:][:e], x[(xb+m[3])*e:][:e]
	d0, d1, d2, d3 := dx[(m[0]*n+ni)*e:][:e], dx[(m[1]*n+ni)*e:][:e], dx[(m[2]*n+ni)*e:][:e], dx[(m[3]*n+ni)*e:][:e]
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
	default:
		panic(fmt.Sprintf("core: unknown LayerKind %d", kind))
	}
}
