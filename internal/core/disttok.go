package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// DistTokenizer is distributed tokenization *alone* (paper Sec. 3.1, bottom
// of Fig. 2): each rank tokenizes its channel shard and the full channel
// token tensor [B, C, T, E] is AllGathered so a conventional (replicated)
// channel-aggregation module can run on it.
//
// This is the strawman D-CHAG improves on: the AllGather moves C/P tokens of
// every spatial location per rank — versus D-CHAG's single token per rank —
// and the quadratic-in-C aggregation memory is untouched (the paper's Fig. 8
// shows the net effect can be a regression). The traffic ledger makes the
// volume difference measurable in tests and benchmarks.
type DistTokenizer struct {
	Comm       *comm.Communicator
	Channels   int
	ChLo, ChHi int
	Tok        *nn.PatchEmbed

	views []nn.TokenView // Backward's per-channel gradient locations
}

// SetInferDType selects the arithmetic of the tokenizer's no-grad Infer
// path.
func (d *DistTokenizer) SetInferDType(dt tensor.DType) { d.Tok.SetInferDType(dt) }

// NewDistTokenizer builds rank c.Rank()'s tokenizer shard with the same
// per-channel seeding as the serial tokenizer and the DCHAG module.
func NewDistTokenizer(cfg Config, c *comm.Communicator) *DistTokenizer {
	cfg.validate()
	p := c.Size()
	if cfg.Channels < p {
		panic(fmt.Sprintf("core: %d channels cannot be split across %d ranks", cfg.Channels, p))
	}
	lo, hi := ChannelRange(cfg.Channels, p, c.Rank())
	return &DistTokenizer{
		Comm:     c,
		Channels: cfg.Channels,
		ChLo:     lo, ChHi: hi,
		Tok: nn.NewPatchEmbedShard("disttok", lo, hi, cfg.ImgH, cfg.ImgW, cfg.Patch, cfg.Embed, nn.SubSeed(cfg.Seed, seedTok)),
	}
}

// LocalChannels returns the size of this rank's channel shard.
func (d *DistTokenizer) LocalChannels() int { return d.ChHi - d.ChLo }

// Forward tokenizes the local image shard [B, Cl, H, W] and AllGathers the
// full token tensor [B, C, T, E] (the expensive channel+spatial AllGather of
// Sec. 3.1).
func (d *DistTokenizer) Forward(x *tensor.Tensor) *tensor.Tensor {
	local := d.Tok.Forward(x) // [B, Cl, T, E]
	return d.Comm.AllGatherConcat(local, 1)
}

// Backward consumes the gradient of the full token tensor [B, C, T, E]
// (identical on every rank, because the downstream module is replicated) and
// back-propagates this rank's channel slice, read in place, through the
// local tokenizer. No communication.
func (d *DistTokenizer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(grad.Shape) != 4 || grad.Shape[1] != d.Channels {
		panic(fmt.Sprintf("core: DistTokenizer.Backward want [B,%d,T,E], got %v", d.Channels, grad.Shape))
	}
	d.views = nn.ChannelViews(d.views[:0], grad)
	return d.Tok.BackwardFrom(d.views[d.ChLo:d.ChHi], nil)
}

// Params returns the local tokenizer shard's parameters.
func (d *DistTokenizer) Params() []*nn.Param { return d.Tok.Params() }
