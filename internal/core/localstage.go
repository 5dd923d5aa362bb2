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
// Reference the final layer alone, model.SerialStage nothing.
//
// It owns the stage's one token layout: a pass asks every partial for its
// first-level group inputs, the tokenizer writes each channel's tokens —
// bias and channel-ID row added on the way — where its group reads them, and
// the trees run in place; Backward hands the tokenizer the groups' input
// gradients the same way. The channel-token tensor [B, Cl, T, E] is written
// once per pass and never copied (DESIGN.md "Channel stage: one token
// layout").
type LocalStage struct {
	Tok      *nn.PatchEmbed
	ChEmb    *nn.ChannelEmbed
	Partials []*HierarchicalAggregator

	rows   int                 // B*T of the last Forward
	views  []nn.TokenView      // per-channel token locations of the pass
	outs   [2][]*tensor.Tensor // per-partition aggregated tokens: Forward's, Infer's
	dLocal *tensor.Tensor      // one partition's token gradient
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
	s.views = s.views[:0]
	for _, p := range s.Partials {
		s.views = p.inputViews(s.views, b, t, e, infer)
	}
	s.Tok.Tokenize(x, s.views, s.ChEmb, infer)
	set := 1
	if !infer {
		set, s.rows = 0, b*t
	}
	outs := s.outs[set][:0]
	for _, p := range s.Partials {
		outs = append(outs, tensor.EnsureShape(p.run(infer), b, t, e))
	}
	s.outs[set] = outs
	return outs
}

// Backward takes the gradient of owned partition j's token from column
// first+j of dSeq (B*T*P*E values: the final layer's input gradient, or the
// output gradient itself when the stage is one partition) and returns the
// image-shard gradient [B, Cl, H, W].
//
// dchag:hotpath — every stage's per-step backward; it performs no
// communication and allocates nothing in steady state.
func (s *LocalStage) Backward(dSeq *tensor.Tensor, first int) *tensor.Tensor {
	t, e := s.Tok.Tokens(), s.Tok.Embed
	s.dLocal = tensor.EnsureShape(s.dLocal, s.rows, e)
	s.views = s.views[:0]
	for j, p := range s.Partials {
		// Each partial consumes dLocal fully during backward, so one shared
		// buffer serves every partition in turn.
		readGroupToken(s.dLocal, dSeq, first+j)
		s.views = p.backward(s.dLocal, s.views, t)
	}
	return s.Tok.BackwardFrom(s.views, s.ChEmb)
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

// LocalChannels returns the width of the channel shard.
func (s *LocalStage) LocalChannels() int { return s.Tok.LocalChannels() }

// Params returns the tokenizer's, the channel-ID table's and the partial
// modules' parameters, in that order.
func (s *LocalStage) Params() []*nn.Param {
	ps := append(s.Tok.Params(), s.ChEmb.Params()...)
	for _, p := range s.Partials {
		ps = append(ps, p.Params()...)
	}
	return ps
}
