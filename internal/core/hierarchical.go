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

// TreePlan is the per-level group layout of a hierarchical aggregation
// module: Plan[level] lists the input-group sizes at that level. The output
// of each level has one token per group; the last level has a single group,
// producing one token.
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
	if tree > channels {
		tree = channels
	}
	plan := TreePlan{EvenSplit(channels, tree)}
	if tree > 1 {
		plan = append(plan, []int{tree})
	}
	return plan
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

// validate checks internal consistency: each level's group count must equal
// the next level's input count.
func (p TreePlan) validate() {
	for l := 0; l < len(p)-1; l++ {
		next := 0
		for _, g := range p[l+1] {
			next += g
		}
		if len(p[l]) != next {
			panic(fmt.Sprintf("core: TreePlan level %d emits %d tokens but level %d consumes %d", l, len(p[l]), l+1, next))
		}
	}
	if len(p[len(p)-1]) != 1 {
		panic("core: TreePlan must end in a single group")
	}
}

// HierarchicalAggregator is the (serial) hierarchical cross-channel
// aggregation module of paper Sec. 3.2: a tree of group aggregators that
// reduces [B, C, T, E] channel tokens to a single [B, T, E] representation.
// With KindCross layers it is the paper's Fig. 3 configuration; with
// KindLinear layers it is the lightweight variant.
//
// In D-CHAG each rank owns one of these over its channel shard (the
// "partial-channel aggregation module"); serially it also serves as the
// reference aggregation module of the baseline architecture (a Tree0
// KindCross instance is exactly one cross-attention layer over all
// channels).
type HierarchicalAggregator struct {
	Plan   TreePlan
	Levels [][]GroupAggregator

	layout TreePlan // Plan plus one more level, a single group of one token: the output
	b, t   int      // extents of the last channel-major Forward

	// Scratch, grown once and reused every step (see tensor.EnsureShape).
	// inputs[l][gi] is the input [N, g, E] of group gi at level l of layout.
	// Nothing is copied between levels: the tokenizer writes the channel
	// tokens into the level-0 inputs and every aggregator's token is written
	// where the next level reads it, the last entry being the module's
	// output. Forward and Infer own separate sets so eval passes never clobber
	// the inputs an aggregator cached for a pending Backward. dIn mirrors
	// inputs for the backward walk: each group's input gradient above level 0,
	// left in its aggregator's own scratch; its last entry is the output
	// gradient.
	inputs, iinputs, dIn [][]*tensor.Tensor
	dg                   *tensor.Tensor // backward per-group token gradient

	// The channel-major entry points' own storage.
	dx     *tensor.Tensor
	cm, gm []nn.TokenView
}

// NewHierarchicalAggregator builds the module for the given plan. Layer
// (level, group) draws its parameters from SubSeed(seed, level*4096+group),
// so any regrouping of the same plan reproduces identical parameters.
func NewHierarchicalAggregator(name string, plan TreePlan, kind LayerKind, embed, heads int, seed int64) *HierarchicalAggregator {
	plan.validate()
	h := &HierarchicalAggregator{Plan: plan, layout: append(plan[:len(plan):len(plan)], []int{1})}
	for l, level := range plan {
		var aggs []GroupAggregator
		for gi, g := range level {
			layerName := fmt.Sprintf("%s.l%d.g%d", name, l, gi)
			aggs = append(aggs, newGroupAggregator(layerName, kind, g, embed, heads, nn.SubSeed(seed, l*4096+gi)))
		}
		h.Levels = append(h.Levels, aggs)
	}
	for _, level := range h.layout {
		h.inputs = append(h.inputs, make([]*tensor.Tensor, len(level)))
		h.iinputs = append(h.iinputs, make([]*tensor.Tensor, len(level)))
		h.dIn = append(h.dIn, make([]*tensor.Tensor, len(level)))
	}
	return h
}

// Channels returns the module's input channel count.
func (h *HierarchicalAggregator) Channels() int { return h.Plan.Channels() }

// groupViews appends, for each of the g channels of a first-level group, where
// its tokens sit inside the group's tensor gt [B*t, g, E]: an input on the
// way in, an input gradient on the way back.
//
// dchag:hotpath — per-step view bookkeeping into a caller-owned slice.
func groupViews(dst []nn.TokenView, gt *tensor.Tensor, t int) []nn.TokenView {
	g, e := gt.Shape[1], gt.Shape[2]
	for k := 0; k < g; k++ {
		dst = append(dst, nn.TokenView{Data: gt.Data[k*e:], BatchStride: t * g * e, TokenStride: g * e})
	}
	return dst
}

// inputViews sizes the pass's first-level group inputs for b samples of t
// tokens of width e — one [b*t, g, e] tensor per group, channel k of the
// group at rows (n*g + k)*e — and appends every channel's view, in plan
// order. The caller fills them and calls run.
func (h *HierarchicalAggregator) inputViews(dst []nn.TokenView, b, t, e int, infer bool) []nn.TokenView {
	in := h.inputs[0]
	if infer {
		in = h.iinputs[0]
	}
	for gi, g := range h.Plan[0] {
		in[gi] = tensor.EnsureShape(in[gi], b*t, g, e)
		dst = groupViews(dst, in[gi], t)
	}
	return dst
}

// run walks the tree over the first-level inputs the caller filled (see
// inputViews), returning the final [N, 1, E] token. With infer set it reads the
// Infer scratch set and aggregators take their no-grad fast path.
//
// dchag:hotpath — the per-step aggregation tree; every group input lives in
// pass-owned scratch.
func (h *HierarchicalAggregator) run(infer bool) *tensor.Tensor {
	inputs := h.inputs
	if infer {
		inputs = h.iinputs
	}
	n, e := inputs[0][0].Shape[0], inputs[0][0].Shape[2]
	for l, level := range h.Levels {
		next := inputs[l+1]
		for gj, g := range h.layout[l+1] {
			next[gj] = tensor.EnsureShape(next[gj], n, g, e)
		}
		gj, k := 0, 0 // where token gi of this level sits in the next one
		for gi, agg := range level {
			var y *tensor.Tensor // [N, E]
			if infer {
				y = nn.Infer(agg, inputs[l][gi])
			} else {
				y = agg.Forward(inputs[l][gi])
			}
			writeGroupToken(next[gj], y.Data, k)
			if k++; k == next[gj].Shape[1] {
				gj, k = gj+1, 0
			}
		}
	}
	return inputs[len(h.Levels)][0]
}

// backward maps d (N*E values, the gradient of run's token) down the tree and
// appends to dst the views of every channel's token gradient inside the
// first-level groups' input gradients [N, g, E], each left in its
// aggregator's own scratch; t is the token count per sample.
//
// dchag:hotpath — the per-step aggregation-tree backward; gradients pass
// between levels in place.
func (h *HierarchicalAggregator) backward(d *tensor.Tensor, dst []nn.TokenView, t int) []nn.TokenView {
	if h.inputs[0][0] == nil {
		panic("core: HierarchicalAggregator.Backward before Forward")
	}
	n, e := h.inputs[0][0].Shape[0], h.inputs[0][0].Shape[2]
	h.dg = tensor.EnsureShape(h.dg, n, e)
	h.dIn[len(h.Levels)][0] = d
	for l := len(h.Levels) - 1; l >= 0; l-- {
		up, gj, k := h.dIn[l+1], 0, 0
		for gi, agg := range h.Levels[l] {
			// Each aggregator consumes dg fully during Backward, so one
			// shared buffer serves every group in turn.
			readGroupToken(h.dg, up[gj], k)
			if k++; k == h.layout[l+1][gj] {
				gj, k = gj+1, 0
			}
			part := agg.Backward(h.dg) // [N, g, E]
			if l == 0 {
				dst = groupViews(dst, part, t)
			} else {
				h.dIn[l][gi] = part
			}
		}
	}
	return dst
}

// Forward reduces channel-major tokens x [B, C, T, E] to [B, T, E]: one fold
// into the first-level group inputs in front of run. A stage that tokenizes
// straight into groups (LocalStage) skips the fold.
func (h *HierarchicalAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	h.b, h.t = x.Shape[0], x.Shape[2]
	return h.channelMajor("Forward", x, false)
}

// Infer is Forward without caching the per-level inputs for backward.
func (h *HierarchicalAggregator) Infer(x *tensor.Tensor) *tensor.Tensor {
	return h.channelMajor("Infer", x, true)
}

func (h *HierarchicalAggregator) channelMajor(op string, x *tensor.Tensor, infer bool) *tensor.Tensor {
	c := h.Channels()
	if len(x.Shape) != 4 || x.Shape[1] != c {
		panic(fmt.Sprintf("core: HierarchicalAggregator.%s want [B,%d,T,E], got %v", op, c, x.Shape))
	}
	b, t, e := x.Shape[0], x.Shape[2], x.Shape[3]
	h.gm = h.inputViews(h.gm[:0], b, t, e, infer)
	h.cm = nn.ChannelViews(h.cm[:0], x)
	copyTokens(h.gm, h.cm, b, t, e)
	return tensor.EnsureShape(h.run(infer), b, t, e)
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
// [B, C, T, E]: backward, then one unfold of the groups' gradients.
func (h *HierarchicalAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	h.gm = h.backward(d, h.gm[:0], h.t)
	h.dx = tensor.EnsureShape(h.dx, h.b, h.Channels(), h.t, d.Shape[len(d.Shape)-1])
	h.cm = nn.ChannelViews(h.cm[:0], h.dx)
	copyTokens(h.cm, h.gm, h.b, h.t, h.dx.Shape[3])
	return h.dx
}

// copyTokens copies every channel's [b, t, e] tokens from src[c] to dst[c]:
// the fold from channel-major storage into group inputs, and its inverse.
//
// dchag:hotpath — the channel-major entry points' one permutation.
func copyTokens(dst, src []nn.TokenView, b, t, e int) {
	for c, d := range dst {
		s := src[c]
		for bi := 0; bi < b; bi++ {
			for ti := 0; ti < t; ti++ {
				copy(d.Data[bi*d.BatchStride+ti*d.TokenStride:][:e], s.Data[bi*s.BatchStride+ti*s.TokenStride:][:e])
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

// readGroupToken gathers column gi of x (N*G*E values, any shape) into dst
// [N, E].
//
// dchag:hotpath — per-group token gather.
func readGroupToken(dst, x *tensor.Tensor, gi int) {
	n, e := dst.Shape[0], dst.Shape[1]
	nG := len(x.Data) / (n * e)
	for i := 0; i < n; i++ {
		copy(dst.Data[i*e:(i+1)*e], x.Data[(i*nG+gi)*e:(i*nG+gi+1)*e])
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
