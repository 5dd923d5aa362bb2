package core

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// LocalStage is the communication-free half of a channel stage, the part
// every stage type shares: the tokenizer over a contiguous channel shard, the
// channel-ID table, and one partial-channel aggregation module per owned
// partition (Partials[j] takes the next Partials[j].Channels() channels of
// the shard). DCHAG puts an AllGather and the final layer behind it,
// model.SerialStage nothing.
//
// It owns the stage's one token layout: a pass asks every partial for its
// first-level group inputs, the tokenizer writes each channel's tokens —
// bias and channel-ID row added on the way — where its group reads them, and
// the trees run in place; Backward hands the tokenizer the groups' input
// gradients the same way. The channel-token tensor [B, Cl, T, E] is written
// once per pass and never copied (DESIGN.md "Channel stage: one token
// layout"); a no-grad pass whose first level is linear throughout writes it
// not at all — the tokenizer adds each token, weighted, straight into the
// first level's outputs.
//
// The stage also owns the backward's scratch: one workspace per tree level,
// which every partial's aggregators of that level borrow in turn, so the
// backward holds one aggregator's scratch per level, not one per aggregator.
type LocalStage struct {
	Tok      *nn.PatchEmbed
	ChEmb    *nn.ChannelEmbed
	Partials []*HierarchicalAggregator

	rows   int                 // B*T of the last Forward
	views  []nn.TokenView      // per-channel token locations of the pass
	outs   [2][]*tensor.Tensor // per-partition aggregated tokens: Forward's, Infer's
	dLocal *tensor.Tensor      // one partition's token gradient
	ws     []workspace         // the backward's, one per tree level
}

// Forward consumes the shard's image [B, Cl, H, W] and returns one aggregated
// token tensor [B, T, E] per owned partition, each in its partial's scratch.
func (s *LocalStage) Forward(x *tensor.Tensor) []*tensor.Tensor { return s.pass(x, false) }

// Infer is Forward without caching activations for backward; it leaves
// everything a pending Backward reads alone.
func (s *LocalStage) Infer(x *tensor.Tensor) []*tensor.Tensor { return s.pass(x, true) }

// pass is the one body behind Forward and Infer.
//
// dchag:hotpath — every stage's per-step front half; views and outputs reuse
// stage-owned slices.
func (s *LocalStage) pass(x *tensor.Tensor, infer bool) []*tensor.Tensor {
	b, t, e := x.Shape[0], s.Tok.Tokens(), s.Tok.Embed
	set, from := 1, 0
	if !infer {
		set, s.rows = 0, b*t
	}
	if infer && s.linearFirst() {
		// The fused first level: no token is written (DESIGN.md "The no-grad
		// linear stage writes no token tensor").
		from = 1
		c := 0
		for _, p := range s.Partials {
			c = p.accumulateLinear(s.Tok, s.ChEmb, x, c)
		}
	} else {
		s.views = s.views[:0]
		for _, p := range s.Partials {
			s.views = p.inputViews(s.views, b, t, e, infer)
		}
		s.Tok.Tokenize(x, s.views, s.ChEmb, infer)
	}
	outs := s.outs[set][:0]
	for _, p := range s.Partials {
		outs = append(outs, tensor.EnsureShape(p.run(from, infer), b, t, e))
	}
	s.outs[set] = outs
	return outs
}

// linearFirst reports whether the no-grad pass may fuse the tokenizer into
// the first aggregation level: every partial's first level is linear and the
// patch fits the fused pass.
func (s *LocalStage) linearFirst() bool {
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

// Backward takes the gradient of owned partition j's token from column
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
func (s *LocalStage) Backward(dSeq *tensor.Tensor, first int) *tensor.Tensor {
	t, e := s.Tok.Tokens(), s.Tok.Embed
	s.dLocal = tensor.EnsureShape(s.dLocal, s.rows, e)
	var dimg *tensor.Tensor
	c := 0 // the first local channel of the next group
	for j, p := range s.Partials {
		for len(s.ws) < len(p.Levels) {
			s.ws = append(s.ws, workspace{})
		}
		// Each partial consumes dLocal fully during backward, so one shared
		// buffer serves every partition in turn.
		readGroupToken(s.dLocal, dSeq, first+j)
		p.backward(s.dLocal, s.ws, func(part *tensor.Tensor) {
			s.views = groupViews(s.views[:0], part, t)
			dimg = s.Tok.BackwardFrom(s.views, c, s.ChEmb)
			c += len(s.views)
		})
	}
	return dimg
}

// SetInferDType selects the arithmetic of the no-grad Infer path: the
// tokenizer projection and every partial module. Channel embeddings and
// softmaxes stay float64.
func (s *LocalStage) SetInferDType(dt tensor.DType) {
	s.Tok.SetInferDType(dt)
	for _, p := range s.Partials {
		p.SetInferDType(dt)
	}
}

// Params returns the tokenizer's, the channel-ID table's and the partial
// modules' parameters, in that order.
func (s *LocalStage) Params() []*nn.Param {
	ps := append(s.Tok.Params(), s.ChEmb.Params()...)
	for _, p := range s.Partials {
		ps = append(ps, p.Params()...)
	}
	return ps
}
