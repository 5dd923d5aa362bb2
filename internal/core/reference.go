package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Reference is the single-process model that is mathematically identical to
// the D-CHAG stage distributed over p ranks: the full tokenizer, the full
// channel embedding, p partial-channel aggregation modules (one per virtual
// rank, drawing the same seeds the distributed ranks draw), and the shared
// final cross-attention layer.
//
// It exists for two reasons. First, it is the correctness oracle: the tests
// prove DCHAG-over-p-goroutine-ranks == Reference(p) to float64 round-off,
// for forward, backward, and parameter gradients. Second, with p = 1 and
// KindCross it degenerates to the baseline architecture's channel stage
// (one cross-attention layer over all channels), which is how the paper's
// single-GPU baselines are built.
type Reference struct {
	Cfg Config
	P   int

	LocalStage // the full tokenizer and channel embedding, all P partials
	Final      *CrossAttnAggregator

	seq [2]*tensor.Tensor // final layer input [B*T, P, E]: Forward's, Infer's
}

// SetInferDType selects the arithmetic of the no-grad Infer path, matching
// DCHAG.SetInferDType.
func (r *Reference) SetInferDType(dt tensor.DType) {
	r.LocalStage.SetInferDType(dt)
	r.Final.SetInferDType(dt)
}

// NewReference builds the serial equivalent of NewDCHAGPartitioned over p
// virtual ranks.
func NewReference(cfg Config, p int) *Reference {
	cfg.validate()
	if p < 1 || cfg.Channels < p {
		panic(fmt.Sprintf("core: invalid virtual rank count %d for %d channels", p, cfg.Channels))
	}
	r := &Reference{
		Cfg: cfg,
		P:   p,
		LocalStage: LocalStage{
			Tok:   nn.NewPatchEmbed("dchag.tok", cfg.Channels, cfg.ImgH, cfg.ImgW, cfg.Patch, cfg.Embed, nn.SubSeed(cfg.Seed, seedTok)),
			ChEmb: nn.NewChannelEmbed("dchag.chemb", cfg.Channels, cfg.Embed, nn.SubSeed(cfg.Seed, seedChEmb)),
		},
		Final: NewCrossAttnAggregator("dchag.final", p, cfg.Embed, cfg.Heads, nn.SubSeed(cfg.Seed, seedFinal)),
	}
	for vr := 0; vr < p; vr++ {
		lo, hi := ChannelRange(cfg.Channels, p, vr)
		r.Partials = append(r.Partials, NewHierarchicalAggregator(
			fmt.Sprintf("dchag.partial%d", vr),
			BuildTreePlan(hi-lo, cfg.Tree), cfg.Kind, cfg.Embed, cfg.Heads,
			nn.SubSeed(cfg.Seed, seedPartial+vr)))
	}
	return r
}

// Forward consumes the full image [B, C, H, W] and returns the aggregated
// representation [B, T, E].
func (r *Reference) Forward(x *tensor.Tensor) *tensor.Tensor { return r.pass(x, false) }

// Infer runs Forward's computation without caching activations for
// backward; bitwise identical to Forward (and therefore to the distributed
// DCHAG.Infer over any rank count realizing the same logical model).
func (r *Reference) Infer(x *tensor.Tensor) *tensor.Tensor { return r.pass(x, true) }

func (r *Reference) pass(x *tensor.Tensor, infer bool) *tensor.Tensor {
	b, t, e := x.Shape[0], r.Cfg.Tokens(), r.Cfg.Embed
	outs, set := r.LocalStage.pass(x, infer), 0
	if infer {
		set = 1
	}
	seq := tensor.EnsureShape(r.seq[set], b*t, r.P, e)
	r.seq[set] = seq
	for vr, out := range outs {
		writeGroupToken(seq, out.Data, vr)
	}
	if infer {
		return r.Final.Infer(seq).Reshape(b, t, e)
	}
	return r.Final.Forward(seq).Reshape(b, t, e)
}

// Backward consumes the output gradient [B, T, E] and returns the full image
// gradient [B, C, H, W].
func (r *Reference) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dSeq := r.Final.Backward(grad.Reshape(-1, r.Cfg.Embed))
	return r.LocalStage.Backward(dSeq, 0)
}

// Params returns all parameters of the serial model.
func (r *Reference) Params() []*nn.Param { return append(r.LocalStage.Params(), r.Final.Params()...) }
