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
	full       *tensor.Tensor // the gathered [B, C, T, E]
}

// NewDistTokenizer builds rank c.Rank()'s tokenizer shard with the same
// per-channel seeding as the serial tokenizer and the DCHAG module.
func NewDistTokenizer(cfg Config, c *comm.Communicator) *DistTokenizer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
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

// Forward tokenizes the local image shard [B, Cl, H, W] and AllGathers the
// full token tensor [B, C, T, E] (the expensive channel+spatial AllGather of
// Sec. 3.1) into a tokenizer-owned tensor, valid until the next Forward:
// each rank's block of every sample lands at that rank's channels.
func (d *DistTokenizer) Forward(x *tensor.Tensor) *tensor.Tensor {
	local := d.Tok.Forward(x) // [B, Cl, T, E]
	b, t, e := local.Shape[0], local.Shape[2], local.Shape[3]
	d.full = tensor.EnsureShape(d.full, b, d.Channels, t, e)
	d.Comm.AllGatherEach(local, func(r int, part *tensor.Tensor) {
		lo, hi := ChannelRange(d.Channels, d.Comm.Size(), r)
		n := (hi - lo) * t * e
		for s := 0; s < b; s++ {
			copy(d.full.Data[(s*d.Channels+lo)*t*e:][:n], part.Data[s*n:])
		}
	})
	return d.full
}

// Backward consumes the gradient of the full token tensor [B, C, T, E]
// (identical on every rank, because the downstream module is replicated) and
// back-propagates this rank's channel slice, copied out, through the local
// tokenizer. No communication.
func (d *DistTokenizer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(grad.Shape) != 4 || grad.Shape[1] != d.Channels {
		panic(fmt.Sprintf("core: DistTokenizer.Backward want [B,%d,T,E], got %v", d.Channels, grad.Shape))
	}
	return d.Tok.Backward(tensor.SliceAxis(grad, 1, d.ChLo, d.ChHi))
}

// Params returns the local tokenizer shard's parameters.
func (d *DistTokenizer) Params() []*nn.Param { return d.Tok.Params() }
