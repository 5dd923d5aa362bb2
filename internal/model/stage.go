// Package model assembles the paper's foundation-model architectures from
// the repository's substrates: the generic multi-channel ViT of Fig. 1
// (per-channel tokenization -> channel aggregation -> transformer blocks ->
// task head), the masked-autoencoder variant of Fig. 10 used for
// hyperspectral plant images, and the ClimaX-like image-to-image forecaster
// used for weather (Sec. 5.2).
//
// Every model is built around a ChannelStage — the part of the network
// D-CHAG distributes — and every stage is a core.DCHAG: the paper's baseline
// (NewSerial) is its one-partition case, one aggregation module over every
// channel, on one rank. The partition and rank counts change nothing else in
// the model, which is the paper's compatibility claim ("compatible with any
// model-parallel strategy and any type of vision transformer architecture").
package model

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ChannelStage maps a rank's image shard [B, Cl, H, W] to the aggregated
// spatial tokens [B, T, E] and back. Every model is built with a DCHAGStage;
// the interface lets a caller wrap it (to time it, say) by embedding it,
// which is the only way another package can satisfy it: the wrapper then
// inherits dchag, so whatever needs the concrete stage (FoundationModel.DCHAG)
// sees through it.
type ChannelStage interface {
	// Forward consumes this rank's channel shard and returns [B, T, E].
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward maps d[B, T, E] to the image-shard gradient.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the stage's parameters.
	Params() []*nn.Param

	dchag() *DCHAGStage
}

// NewSerialDCHAGEquivalent builds the D-CHAG model with p logical partitions
// on a one-rank group: one process owns every partition and the whole
// channel range, with no batch split and no tensor-parallel blocks. It is
// the model NewDistributed builds over any rank count dividing p, and the
// correctness oracle of distributed training runs.
func NewSerialDCHAGEquivalent(a Arch, p int) *FoundationModel {
	a.Partitions = p
	return NewDistributed(a, comm.NewGroup(1).Comm(0), false)
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

func (s *DCHAGStage) dchag() *DCHAGStage { return s }

// ChannelBounds returns the global channel range of the rank's shard.
func (s *DCHAGStage) ChannelBounds() (lo, hi int) { return s.ChLo, s.ChHi }
