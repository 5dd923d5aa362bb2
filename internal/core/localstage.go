package core

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// localStage is the communication-free half of the D-CHAG stage: the
// tokenizer over a contiguous channel shard, the channel-ID table, and one
// partial-channel aggregation module per owned partition (Partials[j] takes
// the next Partials[j].Channels() channels of the shard). DCHAG puts an
// AllGather and the final layer behind it — or nothing, at one partition.
//
// No pass writes a channel token: the first aggregation level runs with the
// tokenizer folded in, over the patches of each channel. A cross first level
// folds it into its Q/K/V projections (foldCross; DESIGN.md "The cross first
// level folds the tokenizer into Q/K/V"); a linear one adds each token,
// weighted, straight into its outputs, formed in registers
// (accumulateLinear; DESIGN.md "The linear first level folds the tokenizer
// too"). A training pass keeps the tokenizer's patches [Cl, N, P²] — a
// factor E/P² smaller than the tokens — and the backward forms the
// tokenizer's gradients from them and the first level's output gradients,
// never a token gradient. The levels above run in place on the group tokens.
//
// The stage also owns the backward's scratch: one workspace per tree level,
// which every partial's aggregators of that level borrow in turn, so the
// backward holds one aggregator's scratch per level, not one per aggregator.
type localStage struct {
	Tok      *nn.PatchEmbed
	ChEmb    *nn.ChannelEmbed
	Partials []*HierarchicalAggregator

	rows   int            // locations of the last Forward: B*T, or len(locs)
	locs   []int          // the last Forward's listed locations; nil: every one
	pat    *tensor.Tensor // the last Forward's patches
	dLocal *tensor.Tensor // one partition's token gradient
	ws     []workspace    // the backward's, one per tree level
	ends   []int          // the backward's depth pieces over locs
	ifold  crossFold      // the no-grad folded cross level's, lent to every group in turn
}

// pass consumes the shard's image [B, Cl, H, W] and writes owned partition
// j's aggregated token [B, T, E] into slot j of dst [k, B, T, E]: the last
// writer of each tree — its last aggregation level, or on a one-level tree
// the folded first level — writes there directly. With infer set it caches
// nothing for backward and leaves everything a pending backward reads
// alone. A training pass with non-nil locs computes only those locations
// (b·T + t, ascending; unmodified until the backward) and dst is
// [k, len(locs), E]: every step is per location, so each token has the bits
// of a pass over every location.
//
// dchag:hotpath — the stage's per-step front half.
func (s *localStage) pass(x *tensor.Tensor, locs []int, dst *tensor.Tensor, infer bool) {
	rows := x.Shape[0] * s.Tok.Tokens()
	if locs != nil {
		rows = len(locs)
	}
	var pat *tensor.Tensor
	if !infer {
		// The patches are the training pass's one cache, and Patches records
		// the pass for the tokenizer's backward even when nothing is listed.
		s.rows, s.locs = rows, locs
		pat = s.Tok.Patches(x, locs, false)
		s.pat = pat
	}
	if rows == 0 {
		return
	}
	slot := rows * s.Tok.Embed
	for j, p := range s.Partials {
		p.outputTo(dst.Data[j*slot:(j+1)*slot:(j+1)*slot], infer)
	}
	c := 0
	if s.crossFirst() {
		if infer {
			pat = s.Tok.Patches(x, locs, true)
		}
		for _, p := range s.Partials {
			c = p.foldCross(s.Tok, s.ChEmb, pat, c, infer, &s.ifold)
		}
	} else {
		for _, p := range s.Partials {
			c = p.accumulateLinear(s.Tok, s.ChEmb, x, rows, c, infer)
		}
	}
	for _, p := range s.Partials {
		p.run(1, infer)
	}
}

// crossFirst reports whether the partials' first level is cross attention;
// otherwise it is linear (a stage has one kind, every level of every
// partial).
func (s *localStage) crossFirst() bool {
	_, ok := s.Partials[0].Levels[0][0].(*CrossAttnAggregator)
	return ok
}

// backward takes the gradient of owned partition j's token from column
// first+j of dSeq (B*T*P*E values: the final layer's input gradient, or the
// output gradient itself when the stage is one partition) and returns the
// image-shard gradient [B, Cl, H, W]. Each first-level group's output
// gradient goes to its folded backward as soon as the tree hands it over,
// before the next group reuses the level's workspace; every channel's
// gradients are its own slices, so this equals one backward after every
// partition bit for bit.
//
// dchag:hotpath — every stage's per-step backward; it performs no
// communication and allocates nothing in steady state.
func (s *localStage) backward(dSeq *tensor.Tensor, first int) *tensor.Tensor {
	if s.rows == 0 {
		// No location: the image gradient Patches cleared, from a call over
		// no channel.
		s.dLocal = tensor.EnsureShape(s.dLocal, 0, 0, s.Tok.Patch*s.Tok.Patch)
		return s.Tok.BackwardPatches(s.dLocal, 0)
	}
	s.dLocal = tensor.EnsureShape(s.dLocal, s.rows, s.Tok.Embed)
	var ends []int
	if s.locs != nil {
		s.ends = tensor.DepthSplits(s.ends, s.locs, 1)
		ends = s.ends
	}
	var dimg *tensor.Tensor
	c := 0 // the first local channel of the next group
	for j, p := range s.Partials {
		for len(s.ws) < len(p.Levels) {
			s.ws = append(s.ws, workspace{})
		}
		for l := range p.Levels {
			s.ws[l].attn.Locs = s.locs
		}
		// Each partial consumes dLocal fully during backward, so one shared
		// buffer serves every partition in turn.
		readGroupToken(s.dLocal, dSeq, first+j)
		p.backward(s.dLocal, s.ws, func(gi int, dg *tensor.Tensor) {
			switch a := p.Levels[0][gi].(type) {
			case *CrossAttnAggregator:
				dimg = foldBackward(&p.folds[gi], a, dg, &s.ws[0], s.Tok, s.ChEmb, s.pat, c, ends)
			case *LinearAggregator:
				dimg = linearFoldBackward(a, dg, &s.ws[0], s.Tok, s.ChEmb, s.pat, c, ends)
			}
			c += p.Plan[0][gi]
		})
	}
	return dimg
}

// setInferDType selects the arithmetic of the no-grad pass: the tokenizer
// projection and every partial module. Channel embeddings and softmaxes stay
// float64.
func (s *localStage) setInferDType(dt tensor.DType) {
	s.Tok.SetInferDType(dt)
	for _, p := range s.Partials {
		p.SetInferDType(dt)
	}
}

// params returns the tokenizer's, the channel-ID table's and the partial
// modules' parameters, in that order.
func (s *localStage) params() []*nn.Param {
	ps := append(s.Tok.Params(), s.ChEmb.Params()...)
	for _, p := range s.Partials {
		ps = append(ps, p.Params()...)
	}
	return ps
}
