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
// It owns the stage's one token layout: a linear stage's training pass asks
// every partial for its first-level group inputs, the tokenizer writes each
// channel's tokens — bias and channel-ID row added on the way — where its
// group reads them, and the trees run in place; Backward hands the
// tokenizer the groups' input gradients the same way. The channel-token
// tensor [B, Cl, T, E] is written once per pass and never copied (DESIGN.md
// "Channel stage: one token layout"). Two passes write it not at all: a
// cross stage's, which folds the tokenizer into its first level's Q/K/V
// projections (foldCross; DESIGN.md "The cross first level folds the
// tokenizer into Q/K/V"), and a linear stage's no-grad pass, where the
// tokenizer adds each token, weighted, straight into the first level's
// outputs.
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
	pat    *tensor.Tensor // the last Forward's patches when it folded the first level; nil: it tokenized
	views  []nn.TokenView // per-channel token locations of the pass
	dLocal *tensor.Tensor // one partition's token gradient
	ws     []workspace    // the backward's, one per tree level
	ends   []int          // the folded backward's depth pieces over locs
	ifold  crossFold      // the no-grad folded first level's, lent to every group in turn
}

// pass consumes the shard's image [B, Cl, H, W] and writes owned partition
// j's aggregated token [B, T, E] into slot j of dst [k, B, T, E]: the last
// writer of each tree — its last aggregation level, or on a one-level linear
// Infer the fused first level — writes there directly. With infer set it
// caches nothing for backward and leaves everything a pending backward reads
// alone. A training pass with non-nil locs computes only those locations
// (b·T + t, ascending; unmodified until the backward) and dst is
// [k, len(locs), E]: every step is per location, so each token has the bits
// of a pass over every location.
//
// dchag:hotpath — the stage's per-step front half; views reuse a
// stage-owned slice.
func (s *localStage) pass(x *tensor.Tensor, locs []int, dst *tensor.Tensor, infer bool) {
	b, t, e := x.Shape[0], s.Tok.Tokens(), s.Tok.Embed
	from, rows := 0, b*t
	if locs != nil {
		b, t, rows = 1, len(locs), len(locs)
	}
	if !infer {
		s.rows, s.locs = rows, locs
	}
	if rows == 0 {
		// Nothing to aggregate; the tokenizer still records the pass, so its
		// backward returns a zero image gradient.
		s.views = s.views[:0]
		for range s.Tok.LocalChannels() {
			s.views = append(s.views, nn.TokenView{})
		}
		s.Tok.Tokenize(x, locs, s.views, s.ChEmb, infer)
		return
	}
	slot := rows * e
	for j, p := range s.Partials {
		p.outputTo(dst.Data[j*slot:(j+1)*slot:(j+1)*slot], infer)
	}
	switch {
	case s.crossFirst():
		// The tokenizer folded into the first level's projections: no token
		// is written (DESIGN.md "The cross first level folds the tokenizer
		// into Q/K/V").
		from = 1
		pat := s.Tok.Patches(x, locs, infer)
		if !infer {
			s.pat = pat
		}
		c := 0
		for _, p := range s.Partials {
			c = p.foldCross(s.Tok, s.ChEmb, pat, c, infer, &s.ifold)
		}
	case infer && s.linearFirst():
		// The fused first level: no token is written (DESIGN.md "The no-grad
		// linear stage writes no token tensor").
		from = 1
		c := 0
		for _, p := range s.Partials {
			c = p.accumulateLinear(s.Tok, s.ChEmb, x, c)
		}
	default:
		if !infer {
			s.pat = nil
		}
		s.views = s.views[:0]
		for _, p := range s.Partials {
			s.views = p.inputViews(s.views, b, t, e, infer)
		}
		s.Tok.Tokenize(x, locs, s.views, s.ChEmb, infer)
	}
	for _, p := range s.Partials {
		p.run(from, infer)
	}
}

// crossFirst reports whether every partial's first level is cross
// attention: whether every pass folds the tokenizer into it.
func (s *localStage) crossFirst() bool {
	for _, p := range s.Partials {
		if !p.crossFirst() {
			return false
		}
	}
	return true
}

// linearFirst reports whether the no-grad pass may fuse the tokenizer into
// the first aggregation level: every partial's first level is linear and the
// patch fits the fused pass.
func (s *localStage) linearFirst() bool {
	if s.Tok.Patch*s.Tok.Patch > tensor.PatchAccumMaxDepth {
		return false
	}
	for _, p := range s.Partials {
		if !p.linearFirst() {
			return false
		}
	}
	return true
}

// backward takes the gradient of owned partition j's token from column
// first+j of dSeq (B*T*P*E values: the final layer's input gradient, or the
// output gradient itself when the stage is one partition) and returns the
// image-shard gradient [B, Cl, H, W]. The tokenizer takes each first-level
// group's input gradient as soon as the group's backward returns it, before
// the next group reuses the level's workspace; every channel's gradients are
// its own slices, so this equals one tokenizer backward after every
// partition bit for bit.
//
// dchag:hotpath — every stage's per-step backward; it performs no
// communication and allocates nothing in steady state.
func (s *localStage) backward(dSeq *tensor.Tensor, first int) *tensor.Tensor {
	t, e := s.Tok.Tokens(), s.Tok.Embed
	if s.rows == 0 {
		return s.Tok.BackwardFrom(nil, 0, s.ChEmb)
	}
	s.dLocal = tensor.EnsureShape(s.dLocal, s.rows, e)
	var ends []int
	if s.pat != nil && s.locs != nil {
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
			agg := p.Levels[0][gi]
			if s.pat != nil {
				dimg = foldBackward(&p.folds[gi], agg.(*CrossAttnAggregator), dg, &s.ws[0], s.Tok, s.ChEmb, s.pat, c, ends)
			} else {
				s.views = groupViews(s.views[:0], agg.backward(dg, &s.ws[0]), t)
				dimg = s.Tok.BackwardFrom(s.views, c, s.ChEmb)
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
