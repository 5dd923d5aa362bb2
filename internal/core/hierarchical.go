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
// the next level's input count, and every level above the first is one
// group — the backward keeps one workspace per level, and a level's input
// gradients stay in it while the level below reads them.
func (p TreePlan) validate() {
	for l := 1; l < len(p); l++ {
		if len(p[l]) != 1 {
			panic(fmt.Sprintf("core: TreePlan level %d has %d groups; every level above the first must be one", l, len(p[l])))
		}
	}
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
// "partial-channel aggregation module"); at one partition it is the whole
// aggregation of the paper's baseline architecture (a Tree0 KindCross
// instance is exactly one cross-attention layer over all channels). There
// the stage runs its first level with the tokenizer folded in, over each
// channel's patches, so the tokens the module reduces are never written.
type HierarchicalAggregator struct {
	Plan   TreePlan
	Levels [][]GroupAggregator

	layout TreePlan // Plan plus one more level, a single group of one token: the output
	b, t   int      // extents of the last Forward
	n      int      // rows of the last training pass
	ran    bool     // a training pass has run: Backward may

	// Scratch, grown once and reused every step (see tensor.EnsureShape).
	// inputs[l][gi] is the input [N, g, E] of group gi at level l of layout.
	// Nothing is copied between levels: every aggregator's token is written
	// where the next level reads it, the last entry being the module's
	// output. The level-0 inputs are written only by Forward; in a D-CHAG
	// stage the first level runs with the tokenizer folded in (foldCross,
	// accumulateLinear) and no pass writes them. A no-grad pass owns a
	// separate set, iinputs, so it never clobbers the inputs an aggregator
	// cached for a pending Backward. dIn mirrors inputs for the backward
	// walk: each group's input gradient above level 0, left in its level's
	// workspace; its last entry is the output gradient.
	inputs, iinputs, dIn [][]*tensor.Tensor
	dg                   *tensor.Tensor // backward per-group token gradient
	// folds[gi] is first-level group gi's folded projections when the
	// stage tokenizes into cross aggregators (foldCross); its group input is
	// then never written.
	folds []crossFold

	// Forward's and Backward's own storage: the token gradient and the
	// backward workspaces, one per level.
	dx *tensor.Tensor
	ws []workspace
}

// NewHierarchicalAggregator builds the module for the given plan. Layer
// (level, group) draws its parameters from SubSeed(seed, level*4096+group),
// so any regrouping of the same plan reproduces identical parameters.
func NewHierarchicalAggregator(name string, plan TreePlan, kind LayerKind, embed, heads int, seed int64) *HierarchicalAggregator {
	plan.validate()
	h := &HierarchicalAggregator{Plan: plan, layout: append(plan[:len(plan):len(plan)], []int{1}), ws: make([]workspace, len(plan))}
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
	for _, level := range h.layout {
		h.inputs = append(h.inputs, make([]*tensor.Tensor, len(level)))
		h.iinputs = append(h.iinputs, make([]*tensor.Tensor, len(level)))
		h.dIn = append(h.dIn, make([]*tensor.Tensor, len(level)))
	}
	return h
}

// Channels returns the module's input channel count.
func (h *HierarchicalAggregator) Channels() int { return h.Plan.Channels() }

// run walks the tree from level `from` over the inputs the caller filled
// (Forward, foldCross or accumulateLinear), returning the final [N, 1, E]
// token. With infer set it reads the Infer scratch set and aggregators take
// their no-grad fast path.
//
// dchag:hotpath — the per-step aggregation tree; every group input lives in
// pass-owned scratch.
func (h *HierarchicalAggregator) run(from int, infer bool) *tensor.Tensor {
	inputs := h.inputs
	if infer {
		inputs = h.iinputs
	}
	n, e := inputs[from][0].Shape[0], inputs[from][0].Shape[2]
	if !infer {
		h.n, h.ran = n, true
	}
	for l := from; l < len(h.Levels); l++ {
		next := h.levelInputs(inputs, l+1, n, e)
		gj, k := 0, 0 // where token gi of this level sits in the next one
		for gi, agg := range h.Levels[l] {
			var y *tensor.Tensor // [N, E]
			if infer {
				y = agg.Infer(inputs[l][gi])
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

// levelInputs sizes the group inputs of layout level l, [n, g, e] each, and
// returns them.
func (h *HierarchicalAggregator) levelInputs(inputs [][]*tensor.Tensor, l, n, e int) []*tensor.Tensor {
	for gj, g := range h.layout[l] {
		inputs[l][gj] = tensor.EnsureShape(inputs[l][gj], n, g, e)
	}
	return inputs[l]
}

// outputTo makes out (B*T*E values) where the next pass of the set infer
// selects writes the module's token: the layout's last entry, written by the
// last level's aggregator (by accumulateLinear on a one-level tree).
func (h *HierarchicalAggregator) outputTo(out []float64, infer bool) {
	inputs := h.inputs
	if infer {
		inputs = h.iinputs
	}
	last := inputs[len(h.Levels)]
	if last[0] == nil {
		last[0] = &tensor.Tensor{}
	}
	last[0].Data = out
}

// accumulateLinear is the first level of a pass over first-level
// LinearAggregators, fused with the tokenizer: each group's token [n, E] is
// written where the next level reads it, starting as the aggregator's bias,
// and tok adds w_k times each of its channels' tokens (local channels c,
// c+1, ... in plan order) straight into it — no channel token and no
// first-level group input is written. A no-grad pass forms the tokens from
// the images x (PatchEmbed.InferAccum, in the inference arithmetic), a
// training pass from the n rows of patches its Patches call cached
// (AccumPatches, in float64). It returns the next local channel; run(1,
// infer) takes the tree from there. The sums are LinearAggregator.Forward's
// over the tokenizer's tokens plus their channel-ID rows, bit for bit.
//
// dchag:hotpath — the linear stage's first level.
func (h *HierarchicalAggregator) accumulateLinear(tok *nn.PatchEmbed, ids *nn.ChannelEmbed, x *tensor.Tensor, n, c int, infer bool) int {
	inputs := h.inputs
	if infer {
		inputs = h.iinputs
	}
	e := tok.Embed
	next := h.levelInputs(inputs, 1, n, e)
	gj, k := 0, 0 // where the group's token sits in the next level
	for _, agg := range h.Levels[0] {
		la := agg.(*LinearAggregator)
		out := next[gj]
		ldo := out.Shape[1] * e
		col := out.Data[k*e:]
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
		if k++; k == out.Shape[1] {
			gj, k = gj+1, 0
		}
	}
	return c
}

// foldCross is the first level of a pass over first-level
// CrossAttnAggregators with the tokenizer folded into their projections:
// each group runs foldForward over pat [localC, N, P²], the tokenizer's
// patches of its local channels c, c+1, ... in plan order, and its token is
// written where the next level reads it — the first-level group inputs are
// never written. It returns the next local channel; run(1, infer) takes the
// tree from there. A training pass keeps each group's folded projections for
// backward; a no-grad pass lends every group ifold.
//
// dchag:hotpath — the cross stage's first level.
func (h *HierarchicalAggregator) foldCross(tok *nn.PatchEmbed, ids *nn.ChannelEmbed, pat *tensor.Tensor, c int, infer bool, ifold *crossFold) int {
	inputs := h.inputs
	if infer {
		inputs = h.iinputs
	}
	next := h.levelInputs(inputs, 1, pat.Shape[1], tok.Embed)
	gj, k := 0, 0 // where the group's token sits in the next level
	for gi, agg := range h.Levels[0] {
		f := ifold
		if !infer {
			f = &h.folds[gi]
		}
		y := foldForward(f, agg.(*CrossAttnAggregator), tok, ids, pat, c, infer)
		writeGroupToken(next[gj], y.Data, k)
		c += h.Plan[0][gi]
		if k++; k == next[gj].Shape[1] {
			gj, k = gj+1, 0
		}
	}
	return c
}

// backward maps d (N*E values, the gradient of run's token) down the tree,
// level l's aggregators borrowing ws[l] (len(ws) >= len(h.Levels)), and hands
// each first-level group's output gradient [N, E] to first with the group's
// index, in plan order: first runs that group's backward, in ws[0], and
// consumes what it returns before the next group's. The one group of a level
// above the first leaves its input gradient in its level's workspace while
// the level below reads it.
//
// dchag:hotpath — the per-step aggregation-tree backward; gradients pass
// between levels in place.
func (h *HierarchicalAggregator) backward(d *tensor.Tensor, ws []workspace, first func(gi int, d *tensor.Tensor)) {
	if !h.ran {
		panic("core: HierarchicalAggregator.Backward before Forward")
	}
	n, e := h.n, d.Shape[len(d.Shape)-1]
	h.dg = tensor.EnsureShape(h.dg, n, e)
	h.dIn[len(h.Levels)][0] = d
	for l := len(h.Levels) - 1; l >= 0; l-- {
		up, gj, k := h.dIn[l+1], 0, 0
		for gi, agg := range h.Levels[l] {
			// Each aggregator consumes dg fully during backward, so one
			// shared buffer serves every group in turn.
			readGroupToken(h.dg, up[gj], k)
			if k++; k == h.layout[l+1][gj] {
				gj, k = gj+1, 0
			}
			if l == 0 {
				first(gi, h.dg)
			} else {
				h.dIn[l][gi] = agg.backward(h.dg, &ws[l]) // [N, g, E]
			}
		}
	}
}

// Forward reduces channel-major tokens x [B, C, T, E] to [B, T, E]: one
// regroup into the first-level group inputs in front of run. The D-CHAG
// stage writes no token: its first level runs with the tokenizer folded in.
func (h *HierarchicalAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != h.Channels() {
		panic(fmt.Sprintf("core: HierarchicalAggregator.Forward want [B,%d,T,E], got %v", h.Channels(), x.Shape))
	}
	h.b, h.t = x.Shape[0], x.Shape[2]
	lo := 0
	for gi, g := range h.Plan[0] {
		h.inputs[0][gi] = tensor.EnsureShape(h.inputs[0][gi], h.b*h.t, g, x.Shape[3])
		regroup(x, h.inputs[0][gi], lo, true)
		lo += g
	}
	return tensor.EnsureShape(h.run(0, false), h.b, h.t, x.Shape[3])
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
// [B, C, T, E]: backward, each group's gradient regrouped as it appears.
func (h *HierarchicalAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	h.dx = tensor.EnsureShape(h.dx, h.b, h.Channels(), h.t, d.Shape[len(d.Shape)-1])
	lo := 0
	h.backward(d, h.ws, func(gi int, dg *tensor.Tensor) {
		regroup(h.dx, h.Levels[0][gi].backward(dg, &h.ws[0]), lo, false)
		lo += h.Plan[0][gi]
	})
	return h.dx
}

// regroup copies between channel-major tokens cm [B, C, T, E] and a
// first-level group's tensor gt [B*T, g, E] over channels lo, ..., lo+g-1,
// channel lo+k of cm at column k of gt: into gt with in, back into cm
// otherwise.
func regroup(cm, gt *tensor.Tensor, lo int, in bool) {
	b, c, t, e := cm.Shape[0], cm.Shape[1], cm.Shape[2], cm.Shape[3]
	g := gt.Shape[1]
	for bi := 0; bi < b; bi++ {
		for k := 0; k < g; k++ {
			for ti := 0; ti < t; ti++ {
				x, y := cm.Data[((bi*c+lo+k)*t+ti)*e:][:e], gt.Data[((bi*t+ti)*g+k)*e:][:e]
				if in {
					copy(y, x)
				} else {
					copy(x, y)
				}
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
