// Package model assembles the paper's foundation-model architectures from
// the repository's substrates: the generic multi-channel ViT of Fig. 1
// (per-channel tokenization -> channel aggregation -> transformer blocks ->
// task head), the masked-autoencoder variant of Fig. 10 used for
// hyperspectral plant images, and the ClimaX-like image-to-image forecaster
// used for weather (Sec. 5.2).
//
// Every model is built around a ChannelStage — the part of the network
// D-CHAG distributes. Swapping the serial stage for the D-CHAG stage changes
// nothing else in the model, which is the paper's compatibility claim
// ("compatible with any model-parallel strategy and any type of vision
// transformer architecture").
package model

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ChannelStage maps a rank's image shard [B, Cl, H, W] to the aggregated
// spatial tokens [B, T, E] and back. Serial models use SerialStage over the
// full channel range; distributed models use DCHAGStage.
type ChannelStage interface {
	// Forward consumes this rank's channel shard and returns [B, T, E].
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward maps d[B, T, E] to the image-shard gradient.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the stage's parameters.
	Params() []*nn.Param
	// LocalChannels returns the width of the stage's channel shard.
	LocalChannels() int
}

// SerialStage is the single-process channel stage of the baseline
// architecture: full tokenizer, channel-ID embedding, and a (possibly
// hierarchical) channel-aggregation module. The default Tree=0/KindCross
// configuration is exactly the paper's Fig. 1 module: one cross-attention
// layer over all channels.
type SerialStage struct {
	Cfg             core.Config
	core.LocalStage                              // full tokenizer, channel IDs, one partial: Agg
	Agg             *core.HierarchicalAggregator // the stage's only module
}

// NewSerialStage builds the serial channel stage from cfg (Tree and Kind
// select the aggregation layout as in core.BuildTreePlan).
func NewSerialStage(cfg core.Config) *SerialStage {
	agg := core.NewHierarchicalAggregator("stage.agg",
		core.BuildTreePlan(cfg.Channels, cfg.Tree), cfg.Kind, cfg.Embed, cfg.Heads, nn.SubSeed(cfg.Seed, 3))
	return &SerialStage{
		Cfg: cfg,
		LocalStage: core.LocalStage{
			Tok:      nn.NewPatchEmbed("stage.tok", cfg.Channels, cfg.ImgH, cfg.ImgW, cfg.Patch, cfg.Embed, nn.SubSeed(cfg.Seed, 1)),
			ChEmb:    nn.NewChannelEmbed("stage.chemb", cfg.Channels, cfg.Embed, nn.SubSeed(cfg.Seed, 2)),
			Partials: []*core.HierarchicalAggregator{agg},
		},
		Agg: agg,
	}
}

// Forward maps [B, C, H, W] to [B, T, E].
func (s *SerialStage) Forward(x *tensor.Tensor) *tensor.Tensor { return s.LocalStage.Forward(x)[0] }

// Infer maps [B, C, H, W] to [B, T, E] without caching activations for
// backward.
func (s *SerialStage) Infer(x *tensor.Tensor) *tensor.Tensor { return s.LocalStage.Infer(x)[0] }

// Backward maps d[B, T, E] to the image gradient [B, C, H, W].
func (s *SerialStage) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return s.LocalStage.Backward(grad, 0)
}

// ReferenceStage is core.Reference as a ChannelStage: the serial stage that is
// mathematically identical to the D-CHAG stage distributed over P ranks.
// A model built on ReferenceStage(P) and trained on full images follows the
// exact same trajectory as the distributed model trained on channel shards,
// which the training tests assert.
type ReferenceStage struct {
	*core.Reference
}

// NewReferenceStage builds the serial equivalent of a P-rank D-CHAG stage.
func NewReferenceStage(cfg core.Config, p int) *ReferenceStage {
	return &ReferenceStage{core.NewReference(cfg, p)}
}

// NewSerialDCHAGEquivalent builds a serial model whose channel stage is the
// P-group D-CHAG reference; used as the correctness oracle for distributed
// training runs.
func NewSerialDCHAGEquivalent(a Arch, p int) *FoundationModel {
	return build(a, NewReferenceStage(a.Config, p), nil, false)
}

// DCHAGStage is one rank's core.DCHAG as a ChannelStage.
type DCHAGStage struct {
	*core.DCHAG
}

// NewDCHAGStage builds rank c.Rank()'s D-CHAG channel stage with the given
// logical partition count; 0 defaults to one partition per rank.
func NewDCHAGStage(cfg core.Config, c *comm.Communicator, partitions int) *DCHAGStage {
	if partitions == 0 {
		partitions = c.Size()
	}
	return &DCHAGStage{core.NewDCHAGPartitioned(cfg, c, partitions)}
}

// ChannelBounds returns the global channel range of the rank's shard.
func (s *DCHAGStage) ChannelBounds() (lo, hi int) { return s.ChLo, s.ChHi }
