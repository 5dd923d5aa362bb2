package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config describes a D-CHAG channel stage: the tokenizer geometry, the
// embedding width, and the partial-channel aggregation module layout.
type Config struct {
	// Channels is the global channel count (spectral bands, atmospheric
	// variables, ...).
	Channels int
	// ImgH, ImgW, Patch define the tokenizer geometry.
	ImgH, ImgW, Patch int
	// Embed and Heads size the attention layers.
	Embed, Heads int
	// Tree selects the partial-module layout (paper Fig. 9): 0 = one
	// aggregation layer over the whole local shard, N >= 2 = N first-level
	// groups plus a local reducer.
	Tree int
	// Kind selects D-CHAG-C (cross-attention) or D-CHAG-L (linear) partial
	// layers. The final shared layer is always cross-attention.
	Kind LayerKind
	// Seed determines every parameter deterministically.
	Seed int64
}

// Tokens returns the spatial token count per channel.
func (c Config) Tokens() int { return (c.ImgH / c.Patch) * (c.ImgW / c.Patch) }

func (c Config) validate() {
	if c.Channels < 1 || c.Embed < 1 || c.Heads < 1 {
		panic(fmt.Sprintf("core: invalid config %+v", c))
	}
	if c.ImgH%c.Patch != 0 || c.ImgW%c.Patch != 0 {
		panic(fmt.Sprintf("core: image %dx%d not divisible by patch %d", c.ImgH, c.ImgW, c.Patch))
	}
	if c.Embed%c.Heads != 0 {
		panic(fmt.Sprintf("core: embed %d not divisible by heads %d", c.Embed, c.Heads))
	}
}

// Seed indices for the stage's components; shared with Reference so the
// distributed and serial constructions draw identical parameters.
const (
	seedTok     = 1
	seedChEmb   = 2
	seedFinal   = 3
	seedPartial = 100 // + rank
)

// DCHAG is one rank's slice of the Distributed Cross-Channel Hierarchical
// Aggregation stage (paper Sec. 3.3, Fig. 4):
//
//	local channel shard --PatchEmbed--> [B, Cl, T, E]
//	                    --ChannelEmbed--> (+ channel ID tokens)
//	                    --partial aggregation--> [B, T, E]   (1 token/partition)
//	  --AllGather (the ONLY communication)--> [B*T, P, E]
//	  --final shared cross-attention--> [B, T, E]
//
// The final layer's parameters are replicated and its input is identical on
// every rank after the AllGather, so the backward pass recomputes the final
// layer gradient locally, slices out the rank's own token gradient, and
// back-propagates through the local partial module and tokenizer with zero
// communication — the property the paper's Sec. 3.3 claims and the tests
// assert via the traffic ledger.
//
// The channel-partition count P is a property of the *model*, decoupled from
// the rank count q: each rank owns a contiguous block of P/q partitions
// (one partial module per partition). The logical model — its parameters and
// its training trajectory — depends only on (Config, P), so a checkpoint
// saved at q ranks can be restored at any q' dividing P (including q' = 1,
// which is exactly Reference). The default constructor keeps the historical
// one-partition-per-rank layout.
type DCHAG struct {
	Cfg        Config
	Comm       *comm.Communicator
	ChLo, ChHi int
	// Partitions is the logical channel-partition count P; PartLo, PartHi
	// bound this rank's owned partition block [PartLo, PartHi).
	Partitions     int
	PartLo, PartHi int

	LocalStage // tokenizer, channel IDs and one partial module per owned partition
	Final      *CrossAttnAggregator

	b int

	// Scratch, grown once and reused every step; Forward and Infer own
	// separate sets.
	gather [2]gatherScratch
}

// gatherScratch is one pass's path from the partials to the final layer.
type gatherScratch struct {
	local *tensor.Tensor // stacked owned-partition tokens [k, B, T, E]
	seq   *tensor.Tensor // final layer input [B*T, P, E]
}

// SetInferDType selects the arithmetic of the stage's no-grad Infer path:
// the local stage and the final shared layer.
func (d *DCHAG) SetInferDType(dt tensor.DType) {
	d.LocalStage.SetInferDType(dt)
	d.Final.SetInferDType(dt)
}

// NewDCHAGPartitioned constructs rank c.Rank()'s slice of the P-partition
// D-CHAG stage. The group size q must divide partitions; rank r owns
// partitions [r*P/q, (r+1)*P/q) and the channel range they cover. Partition
// k's partial module draws its parameters from SubSeed(seed, seedPartial+k)
// regardless of q, so every q realizes the identical logical model; the
// final layer draws from SubSeed(seed, seedFinal) on every rank (replicated).
func NewDCHAGPartitioned(cfg Config, c *comm.Communicator, partitions int) *DCHAG {
	cfg.validate()
	q := c.Size()
	if partitions < 1 || cfg.Channels < partitions {
		panic(fmt.Sprintf("core: %d channels cannot form %d partitions", cfg.Channels, partitions))
	}
	if partitions%q != 0 {
		panic(fmt.Sprintf("core: partition count %d not divisible by %d ranks", partitions, q))
	}
	perRank := partitions / q
	partLo, partHi := c.Rank()*perRank, (c.Rank()+1)*perRank
	lo, _ := ChannelRange(cfg.Channels, partitions, partLo)
	_, hi := ChannelRange(cfg.Channels, partitions, partHi-1)
	d := &DCHAG{
		Cfg:        cfg,
		Comm:       c,
		ChLo:       lo,
		ChHi:       hi,
		Partitions: partitions,
		PartLo:     partLo,
		PartHi:     partHi,
		LocalStage: LocalStage{
			Tok:   nn.NewPatchEmbedShard("dchag.tok", lo, hi, cfg.ImgH, cfg.ImgW, cfg.Patch, cfg.Embed, nn.SubSeed(cfg.Seed, seedTok)),
			ChEmb: nn.NewChannelEmbedShard("dchag.chemb", lo, hi, cfg.Embed, nn.SubSeed(cfg.Seed, seedChEmb)),
		},
		Final: NewCrossAttnAggregator("dchag.final", partitions, cfg.Embed, cfg.Heads, nn.SubSeed(cfg.Seed, seedFinal)),
	}
	for k := partLo; k < partHi; k++ {
		klo, khi := ChannelRange(cfg.Channels, partitions, k)
		d.Partials = append(d.Partials, NewHierarchicalAggregator(
			fmt.Sprintf("dchag.partial%d", k),
			BuildTreePlan(khi-klo, cfg.Tree), cfg.Kind, cfg.Embed, cfg.Heads,
			nn.SubSeed(cfg.Seed, seedPartial+k)))
	}
	pp := cfg.Patch * cfg.Patch
	d.Tok.Weight.MarkShard("dchag.tok.weight", 0, []int{cfg.Channels, pp, cfg.Embed}, lo, hi)
	d.Tok.Bias.MarkShard("dchag.tok.bias", 0, []int{cfg.Channels, cfg.Embed}, lo, hi)
	d.ChEmb.Table.MarkShard("dchag.chemb.chan", 0, []int{cfg.Channels, cfg.Embed}, lo, hi)
	return d
}

// Forward consumes this rank's image shard [B, Cl, H, W] and returns the
// aggregated representation [B, T, E], identical on every rank.
func (d *DCHAG) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.b = x.Shape[0]
	return d.pass(x, false)
}

// Infer runs Forward's computation without caching activations for
// backward — the serving fast path. The AllGather still runs: inference
// keeps exactly the forward communication pattern, one token per owned
// partition across the group.
func (d *DCHAG) Infer(x *tensor.Tensor) *tensor.Tensor { return d.pass(x, true) }

// pass is Forward and Infer. The AllGather moves each rank's stack straight
// from where it lies into the final layer's input: no copy in between.
//
// dchag:hotpath
func (d *DCHAG) pass(x *tensor.Tensor, infer bool) *tensor.Tensor {
	b, t, e := x.Shape[0], d.Cfg.Tokens(), d.Cfg.Embed
	outs, s := d.LocalStage.pass(x, infer), &d.gather[0]
	if infer {
		s = &d.gather[1]
	}
	// [k, B, T, E]: one token per owned partition.
	k := len(outs)
	s.local = tensor.EnsureShape(s.local, k, b, t, e)
	tensor.StackInto(s.local, outs...)
	// Rank r's stack holds partitions [r*k, (r+1)*k): column r*k+ki of the
	// final layer's input [B*T, P, E].
	s.seq = tensor.EnsureShape(s.seq, b*t, d.Partitions, e)
	d.Comm.AllGatherEach(s.local, func(r int, part *tensor.Tensor) {
		if len(part.Data) != len(s.local.Data) {
			panic(fmt.Sprintf("core: rank %d gathered partition tokens %v, this rank holds %v", r, part.Shape, s.local.Shape))
		}
		for ki := 0; ki < k; ki++ {
			writeGroupToken(s.seq, part.Data[ki*b*t*e:(ki+1)*b*t*e], r*k+ki)
		}
	})
	if infer {
		return d.Final.Infer(s.seq).Reshape(b, t, e)
	}
	return d.Final.Forward(s.seq).Reshape(b, t, e)
}

// Backward consumes the gradient of the aggregated representation [B, T, E]
// (identical on every rank) and returns the gradient of this rank's image
// shard [B, Cl, H, W]. It performs no communication.
func (d *DCHAG) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t, e := d.Cfg.Tokens(), d.Cfg.Embed
	if len(grad.Shape) != 3 || grad.Shape[0] != d.b || grad.Shape[1] != t || grad.Shape[2] != e {
		panic(fmt.Sprintf("core: DCHAG.Backward want [%d,%d,%d], got %v", d.b, t, e, grad.Shape))
	}
	dSeq := d.Final.Backward(grad.Reshape(d.b*t, e)) // [N, P, E]
	return d.LocalStage.Backward(dSeq, d.PartLo)
}

// Params returns this rank's parameters: the tokenizer and channel-embedding
// shards, the rank-local partial modules, and the replicated final layer.
func (d *DCHAG) Params() []*nn.Param { return append(d.LocalStage.Params(), d.Final.Params()...) }

// LocalParams returns only the rank-local (non-replicated) parameters; the
// complement of ReplicatedParams.
func (d *DCHAG) LocalParams() []*nn.Param { return d.LocalStage.Params() }

// ReplicatedParams returns the parameters replicated across the D-CHAG group
// (the final shared cross-attention layer).
func (d *DCHAG) ReplicatedParams() []*nn.Param { return d.Final.Params() }
