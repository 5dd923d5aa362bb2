package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// EvenSplit partitions n items into k near-equal contiguous group sizes
// (the first n%k groups get one extra item). It panics unless 0 < k <= n.
func EvenSplit(n, k int) []int {
	if k <= 0 || k > n {
		panic(fmt.Sprintf("core: cannot split %d channels into %d groups", n, k))
	}
	sizes := make([]int, k)
	base, rem := n/k, n%k
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return sizes
}

// ChannelRange returns the contiguous global channel range [lo, hi) owned by
// rank r of p when c channels are EvenSplit across ranks.
func ChannelRange(c, p, r int) (lo, hi int) {
	sizes := EvenSplit(c, p)
	for i := 0; i < r; i++ {
		lo += sizes[i]
	}
	return lo, lo + sizes[r]
}

// TreePlan is the per-level group layout of a partial aggregation module:
// Plan[level] lists the input-group sizes at that level. It has one of the
// paper's two shapes (Fig. 9): Tree0, {{C}}, one group over every channel,
// or TreeN, {{g_1, ..., g_N}, {N}}, N first-level groups under one reducer
// of their N tokens.
type TreePlan [][]int

// BuildTreePlan realizes the paper's TreeN naming (Fig. 9) for a module over
// `channels` inputs: Tree0 is a single aggregation layer over all channels;
// TreeN (N >= 2) splits the channels into N near-equal first-level groups
// and adds one second-level layer that reduces the N group tokens to one.
// N is clamped to the channel count.
func BuildTreePlan(channels, tree int) TreePlan {
	if channels < 1 {
		panic(fmt.Sprintf("core: BuildTreePlan with %d channels", channels))
	}
	if tree <= 1 || channels == 1 {
		return TreePlan{[]int{channels}}
	}
	tree = min(tree, channels)
	return TreePlan{EvenSplit(channels, tree), []int{tree}}
}

// Channels returns the input channel count of the plan.
func (p TreePlan) Channels() int {
	n := 0
	for _, g := range p[0] {
		n += g
	}
	return n
}

// MaxGroup returns the largest group size anywhere in the plan — the paper's
// "maximum number of input channels per layer", the quantity the hierarchy
// exists to shrink.
func (p TreePlan) MaxGroup() int {
	m := 0
	for _, level := range p {
		for _, g := range level {
			if g > m {
				m = g
			}
		}
	}
	return m
}

// NumLayers returns the total number of aggregation layers (group modules).
func (p TreePlan) NumLayers() int {
	n := 0
	for _, level := range p {
		n += len(level)
	}
	return n
}

// validate panics unless p is Tree0 (one level of one group) or TreeN (a
// first level of groups, then one group over their tokens).
func (p TreePlan) validate() {
	switch {
	case len(p) == 1 && len(p[0]) == 1:
	case len(p) == 2 && len(p[0]) > 0 && len(p[1]) == 1 && p[1][0] == len(p[0]):
	default:
		panic(fmt.Sprintf("core: TreePlan %v is neither Tree0 {{C}} nor TreeN {{g_1..g_N}, {N}}", p))
	}
}

// HierarchicalAggregator is the (serial) hierarchical cross-channel
// aggregation module of paper Sec. 3.2: first-level group aggregators over
// [B, C, T, E] channel tokens and, at TreeN, one reducer of their tokens,
// giving a single [B, T, E] representation. With KindCross layers it is the
// paper's Fig. 3 configuration; with KindLinear layers it is the lightweight
// variant.
//
// In D-CHAG each rank owns one of these over its channel shard (the
// "partial-channel aggregation module"); at one partition it is the whole
// aggregation of the paper's baseline architecture (a Tree0 KindCross
// instance is exactly one cross-attention layer over all channels). There
// the stage runs its first level with the tokenizer folded in, over each
// channel's patches, so the tokens the module reduces are never written.
type HierarchicalAggregator struct {
	Plan   TreePlan
	Levels [][]GroupAggregator // the first-level groups, then at TreeN the reducer

	ran bool // a training pass has run: Backward may

	// toks[0] and toks[1] are the first level's tokens [N, G, E], of the
	// training and of the no-grad pass: at Tree0 a header over the pass's
	// output, at TreeN the reducer's input. The reducer keeps its training
	// input for a pending Backward, so the no-grad pass writes its own.
	toks [2]tensor.Tensor
	// folds[gi] is first-level group gi's folded projections when the
	// stage tokenizes into cross aggregators (foldCross).
	folds []crossFold

	// The entry points' own storage: Forward's extents, first-level group
	// inputs and output; Backward's view of its gradient, the channel-major
	// token gradient and the two workspaces.
	b, t  int
	in    []*tensor.Tensor
	y, dx *tensor.Tensor
	d     tensor.Tensor
	ws    [2]workspace
}

// NewHierarchicalAggregator builds the module for the given plan, which must
// be Tree0 or TreeN. Layer (level, group) draws its parameters from
// SubSeed(seed, level*4096+group), so any regrouping of the same plan
// reproduces identical parameters.
func NewHierarchicalAggregator(name string, plan TreePlan, kind LayerKind, embed, heads int, seed int64) *HierarchicalAggregator {
	plan.validate()
	h := &HierarchicalAggregator{Plan: plan, in: make([]*tensor.Tensor, len(plan[0]))}
	for l, level := range plan {
		var aggs []GroupAggregator
		for gi, g := range level {
			layerName := fmt.Sprintf("%s.l%d.g%d", name, l, gi)
			aggs = append(aggs, newGroupAggregator(layerName, kind, g, embed, heads, nn.SubSeed(seed, l*4096+gi)))
		}
		h.Levels = append(h.Levels, aggs)
	}
	if kind == KindCross {
		h.folds = make([]crossFold, len(plan[0]))
	}
	return h
}

// Channels returns the module's input channel count.
func (h *HierarchicalAggregator) Channels() int { return h.Plan.Channels() }

// reducer returns the TreeN reducer; nil at Tree0.
func (h *HierarchicalAggregator) reducer() GroupAggregator {
	if len(h.Levels) == 1 {
		return nil
	}
	return h.Levels[1][0]
}

// tokens returns the [n, G, E] tensor a pass's first level writes its G
// group tokens into, column gi group gi's, where out (n·e values) takes the
// module's token: out itself at Tree0, the reducer's input at TreeN. With
// infer set it is the no-grad pass's.
func (h *HierarchicalAggregator) tokens(out []float64, n, e int, infer bool) *tensor.Tensor {
	t := &h.toks[0]
	if infer {
		t = &h.toks[1]
	}
	if h.reducer() == nil {
		return header(t, out, n, 1, e)
	}
	*t = *tensor.EnsureShape(t, n, len(h.Plan[0]), e)
	return t
}

// reduce finishes a pass whose first level wrote toks (tokens): at TreeN the
// reducer writes the module's token into out, at Tree0 the first level
// already has. With infer set the reducer takes its no-grad path.
//
// dchag:hotpath — the module's second level.
func (h *HierarchicalAggregator) reduce(toks *tensor.Tensor, out []float64, infer bool) {
	if !infer {
		h.ran = true
	}
	r := h.reducer()
	switch {
	case r == nil:
	case infer:
		copy(out, r.Infer(toks).Data)
	default:
		copy(out, r.Forward(toks).Data)
	}
}

// accumulateLinear is the first level of a pass over first-level
// LinearAggregators, fused with the tokenizer: group gi's token [n, E] is
// written at column gi of toks (tokens), starting as the aggregator's bias,
// and the tokenizer adds w_k times each of its channels' tokens (local
// channels c, c+1, ... in plan order) straight into it — no channel token
// and no first-level group input is written. A no-grad pass forms the tokens
// from the images x (PatchEmbed.InferAccum, in the inference arithmetic), a
// training pass from the n rows of patches its Patches call cached
// (AccumPatches, in float64). It returns the next local channel. The sums
// are LinearAggregator.Forward's over the tokenizer's tokens plus their
// channel-ID rows, bit for bit.
//
// dchag:hotpath — the linear stage's first level.
func (h *HierarchicalAggregator) accumulateLinear(tok *nn.PatchEmbed, ids *nn.ChannelEmbed, x, toks *tensor.Tensor, c int, infer bool) int {
	n, ldo, e := toks.Shape[0], toks.Shape[1]*toks.Shape[2], toks.Shape[2]
	for gi, agg := range h.Levels[0] {
		la := agg.(*LinearAggregator)
		col := toks.Data[gi*e:]
		for i := 0; i < n; i++ {
			copy(col[i*ldo:][:e], la.Bias.W.Data)
		}
		for _, w := range la.Weight.W.Data {
			if infer {
				tok.InferAccum(x, c, ids, w, col, ldo)
			} else {
				tok.AccumPatches(c, ids, w, col, ldo)
			}
			c++
		}
	}
	return c
}

// foldCross is the first level of a pass over first-level
// CrossAttnAggregators with the tokenizer folded into their projections:
// each group runs foldForward over pat [localC, N, P²], the tokenizer's
// patches of its local channels c, c+1, ... in plan order, forming its Q, K
// and V in qkv, which every group borrows in turn, and writes its token at
// its column of toks (tokens) — the first-level group inputs are never
// written. It returns the next local channel. A training pass keeps each
// group's folded projections for backward; a no-grad pass lends every group
// ifold.
//
// dchag:hotpath — the cross stage's first level.
func (h *HierarchicalAggregator) foldCross(tok *nn.PatchEmbed, ids *nn.ChannelEmbed, pat, toks *tensor.Tensor, c int, qkv *tensor.Tensor, infer bool, ifold *crossFold) int {
	for gi, agg := range h.Levels[0] {
		f := ifold
		if !infer {
			f = &h.folds[gi]
		}
		tensor.Poison(qkv)
		if infer {
			tensor.Poison(f.wu, f.w[0], f.w[1], f.w[2])
		}
		writeGroupToken(toks, foldForward(f, agg.(*CrossAttnAggregator), tok, ids, pat, c, qkv.Data, infer).Data, gi)
		c += h.Plan[0][gi]
	}
	return c
}

// backward maps d [N, E], the gradient of the module's token, to its first
// level, handing each group's output gradient [N, E] to first with the
// group's index, in plan order: first runs that group's backward, in ws[0],
// and consumes what it returns before the next group's. At Tree0 d is the
// one group's output gradient. At TreeN the reducer's backward, in ws[1],
// leaves its token-major input gradient [G, N, E] there, and each group
// reads its slot of it in place, through ws[0]'s header: nothing lends ws[1]
// again until every group has run.
//
// dchag:hotpath — the per-step partial-module backward.
func (h *HierarchicalAggregator) backward(d *tensor.Tensor, ws *[2]workspace, first func(gi int, d *tensor.Tensor)) {
	if !h.ran {
		panic("core: HierarchicalAggregator.Backward before Forward")
	}
	r := h.reducer()
	if r == nil {
		ws[0].poison()
		first(0, d)
		return
	}
	ws[1].poison()
	dIn := r.backward(d, &ws[1])
	n, e := d.Shape[0], d.Shape[1]
	for gi := range h.Levels[0] {
		ws[0].poison()
		first(gi, header(&ws[0].dg, dIn.Data[gi*n*e:(gi+1)*n*e], n, e))
	}
}

// Forward reduces channel-major tokens x [B, C, T, E] to [B, T, E]: one
// regroup into each first-level group's input, the group's aggregator, then
// the reducer. The D-CHAG stage writes no token: its first level runs with
// the tokenizer folded in.
func (h *HierarchicalAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != h.Channels() {
		panic(fmt.Sprintf("core: HierarchicalAggregator.Forward want [B,%d,T,E], got %v", h.Channels(), x.Shape))
	}
	h.b, h.t = x.Shape[0], x.Shape[2]
	e := x.Shape[3]
	h.y = tensor.EnsureShape(h.y, h.b, h.t, e)
	toks := h.tokens(h.y.Data, h.b*h.t, e, false)
	lo := 0
	for gi, g := range h.Plan[0] {
		h.in[gi] = tensor.EnsureShape(h.in[gi], h.b*h.t, g, e)
		regroup(x, h.in[gi], lo)
		writeGroupToken(toks, h.Levels[0][gi].Forward(h.in[gi]).Data, gi)
		lo += g
	}
	h.reduce(toks, h.y.Data, false)
	return h.y
}

// SetInferDType selects the arithmetic of every aggregator's no-grad Infer
// path.
func (h *HierarchicalAggregator) SetInferDType(dt tensor.DType) {
	for _, level := range h.Levels {
		for _, agg := range level {
			if d, ok := agg.(interface{ SetInferDType(tensor.DType) }); ok {
				d.SetInferDType(dt)
			}
		}
	}
}

// Backward maps d [B, T, E] back to the channel-major token gradient
// [B, C, T, E]: backward, each group's token-major gradient scattered as it
// appears, member k's T·E rows of each sample to channel lo+k's.
func (h *HierarchicalAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	c, e := h.Channels(), d.Shape[len(d.Shape)-1]
	te := h.t * e
	h.dx = tensor.EnsureShape(h.dx, h.b, c, h.t, e)
	lo := 0
	h.backward(header(&h.d, d.Data, h.b*h.t, e), &h.ws, func(gi int, dg *tensor.Tensor) {
		dIn := h.Levels[0][gi].backward(dg, &h.ws[0])
		for k := 0; k < h.Plan[0][gi]; k++ {
			for bi := 0; bi < h.b; bi++ {
				copy(h.dx.Data[(bi*c+lo+k)*te:][:te], dIn.Data[(k*h.b+bi)*te:][:te])
			}
		}
		lo += h.Plan[0][gi]
	})
	return h.dx
}

// regroup copies channels lo, ..., lo+g-1 of channel-major tokens
// cm [B, C, T, E] into a first-level group's input gt [B*T, g, E], channel
// lo+k at column k.
func regroup(cm, gt *tensor.Tensor, lo int) {
	b, c, t, e := cm.Shape[0], cm.Shape[1], cm.Shape[2], cm.Shape[3]
	g := gt.Shape[1]
	for bi := 0; bi < b; bi++ {
		for k := 0; k < g; k++ {
			for ti := 0; ti < t; ti++ {
				copy(gt.Data[((bi*t+ti)*g+k)*e:][:e], cm.Data[((bi*c+lo+k)*t+ti)*e:][:e])
			}
		}
	}
}

// writeGroupToken writes y (N*E values) into column gi of out [N, G, E].
//
// dchag:hotpath — per-group token scatter.
func writeGroupToken(out *tensor.Tensor, y []float64, gi int) {
	nG, e := out.Shape[1], out.Shape[2]
	for n := 0; n < out.Shape[0]; n++ {
		copy(out.Data[(n*nG+gi)*e:(n*nG+gi+1)*e], y[n*e:(n+1)*e])
	}
}

// Params returns all layers' parameters, level by level.
func (h *HierarchicalAggregator) Params() []*nn.Param {
	var ps []*nn.Param
	for _, level := range h.Levels {
		for _, agg := range level {
			ps = append(ps, agg.Params()...)
		}
	}
	return ps
}
