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
	// Kind selects D-CHAG-C (KindCross) or D-CHAG-L (KindLinear) partial
	// layers, the only two. The final shared layer is always cross-attention.
	Kind LayerKind
	// Seed determines every parameter deterministically.
	Seed int64
}

// Tokens returns the spatial token count per channel.
func (c Config) Tokens() int { return (c.ImgH / c.Patch) * (c.ImgW / c.Patch) }

// Validate returns the first rule c breaks, nil if none: a kind other than
// KindCross and KindLinear, a size below 1, a negative tree, heads that do
// not divide the embedding width, a patch that does not divide the image.
// The stage constructors panic with its error; a Config read from outside
// (a checkpoint's architecture record) is checked first.
func (c Config) Validate() error {
	switch {
	case c.Kind != KindCross && c.Kind != KindLinear:
		return fmt.Errorf("core: partial-layer kind %v is neither C nor L", c.Kind)
	case c.Channels < 1 || c.ImgH < 1 || c.ImgW < 1 || c.Patch < 1 || c.Embed < 1 || c.Heads < 1:
		return fmt.Errorf("core: invalid config %+v: channels, image, patch, embed and heads must be positive", c)
	case c.Tree < 0:
		return fmt.Errorf("core: tree %d is negative", c.Tree)
	case c.ImgH%c.Patch != 0 || c.ImgW%c.Patch != 0:
		return fmt.Errorf("core: image %dx%d not divisible by patch %d", c.ImgH, c.ImgW, c.Patch)
	case c.Embed%c.Heads != 0:
		return fmt.Errorf("core: embed %d not divisible by heads %d", c.Embed, c.Heads)
	case c.Patch*c.Patch > tensor.PatchAccumMaxDepth:
		return fmt.Errorf("core: patch %d has %d pixels; the linear first level's fused pass takes at most %d", c.Patch, c.Patch*c.Patch, tensor.PatchAccumMaxDepth)
	}
	return nil
}

// Seed indices for the stage's components. A component draws the same seed
// at every rank count, so every realization holds identical parameters.
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
// layer gradient locally, forms the input gradient of the rank's own
// partition tokens only, and back-propagates through the local partial
// module and tokenizer with zero communication — the property the paper's
// Sec. 3.3 claims and the tests assert via the traffic ledger.
//
// The channel-partition count P is a property of the *model*, decoupled from
// the rank count q: each rank owns a contiguous block of P/q partitions
// (one partial module per partition). The logical model — its parameters and
// its training trajectory — depends only on (Config, P), so a checkpoint
// saved at q ranks can be restored at any q' dividing P, including q' = 1:
// one rank owning every partition is the serial model.
//
// At P = 1 there is nothing to aggregate across partitions: the stage has no
// final layer (Final is nil) and no AllGather, and its one partial module,
// over every channel, is the paper's baseline channel aggregation (Fig. 1).
type DCHAG struct {
	Cfg        Config
	Comm       *comm.Communicator
	ChLo, ChHi int
	// Partitions is the logical channel-partition count P; PartLo, PartHi
	// bound this rank's owned partition block [PartLo, PartHi).
	Partitions     int
	PartLo, PartHi int

	localStage // tokenizer, channel IDs and one partial module per owned partition
	// Final is the shared layer over the P partition tokens; nil at P = 1.
	Final *CrossAttnAggregator

	b    int
	keep []int // the next Forward's locations (Visible); nil: every location

	// Scratch, grown once and reused every step; Forward and Infer own
	// separate sets.
	gather [2]gatherScratch
	dvis   *tensor.Tensor // a listed-location Backward's gradient rows [n, E]
	dRows  tensor.Tensor  // a whole Backward's gradient as [B*T, E], a header
}

// gatherScratch is one pass's path from the partials to the final layer.
type gatherScratch struct {
	local *tensor.Tensor // owned-partition tokens [k, rows, E], written by the partials
	seq   *tensor.Tensor // final layer input [rows, P, E]
	out   tensor.Tensor  // the pass's result, a view: nothing is allocated per pass
	full  *tensor.Tensor // a listed-location pass's result [B, T, E]
}

// result points s.out at data as [n, t, e] and returns it.
func (s *gatherScratch) result(data []float64, n, t, e int) *tensor.Tensor {
	s.out.Data, s.out.Shape = data, append(s.out.Shape[:0], n, t, e)
	return &s.out
}

// SetInferDType selects the arithmetic of the stage's no-grad Infer path:
// the local stage and the final shared layer.
func (d *DCHAG) SetInferDType(dt tensor.DType) {
	d.localStage.setInferDType(dt)
	if d.Final != nil {
		d.Final.SetInferDType(dt)
	}
}

// NewDCHAGPartitioned constructs rank c.Rank()'s slice of the P-partition
// D-CHAG stage. The group size q must divide partitions; rank r owns
// partitions [r*P/q, (r+1)*P/q) and the channel range they cover. Partition
// k's partial module draws its parameters from SubSeed(seed, seedPartial+k)
// regardless of q, so every q realizes the identical logical model; the
// final layer draws from SubSeed(seed, seedFinal) on every rank (replicated).
// A one-partition stage has no final layer: its one partial module is the
// whole aggregation and draws the final layer's seed.
func NewDCHAGPartitioned(cfg Config, c *comm.Communicator, partitions int) *DCHAG {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
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
		localStage: localStage{
			Tok:   nn.NewPatchEmbedShard("dchag.tok", lo, hi, cfg.ImgH, cfg.ImgW, cfg.Patch, cfg.Embed, nn.SubSeed(cfg.Seed, seedTok)),
			ChEmb: nn.NewChannelEmbedShard("dchag.chemb", lo, hi, cfg.Embed, nn.SubSeed(cfg.Seed, seedChEmb)),
		},
	}
	if partitions > 1 {
		d.Final = NewCrossAttnAggregator("dchag.final", partitions, cfg.Embed, cfg.Heads, nn.SubSeed(cfg.Seed, seedFinal))
	}
	for k := partLo; k < partHi; k++ {
		klo, khi := ChannelRange(cfg.Channels, partitions, k)
		seed := nn.SubSeed(cfg.Seed, seedPartial+k)
		if partitions == 1 {
			seed = nn.SubSeed(cfg.Seed, seedFinal)
		}
		d.Partials = append(d.Partials, NewHierarchicalAggregator(
			fmt.Sprintf("dchag.partial%d", k),
			BuildTreePlan(khi-klo, cfg.Tree), cfg.Kind, cfg.Embed, cfg.Heads, seed))
	}
	pp := cfg.Patch * cfg.Patch
	d.Tok.Weight.MarkShard("dchag.tok.weight", 0, []int{cfg.Channels, pp, cfg.Embed}, lo, hi)
	d.Tok.Bias.MarkShard("dchag.tok.bias", 0, []int{cfg.Channels, cfg.Embed}, lo, hi)
	d.ChEmb.Table.MarkShard("dchag.chemb.chan", 0, []int{cfg.Channels, cfg.Embed}, lo, hi)
	return d
}

// Visible makes the next Forward, and its Backward, compute only the
// locations locs — b·T + t of the batch, ascending: the patches a masked
// step keeps. The tokenizer, the partial modules, the AllGather and the
// final layer then run over those rows only, and the output's rows at other
// locations hold no stage value. Every step of the stage is per location,
// so a listed row has the bits a Forward over every location gives it; the
// Backward reads the gradient at the listed rows only and sums every
// parameter gradient in the order that Forward's Backward would have, so
// where the other rows' gradient is zero its bits are that Backward's too.
// Every rank of the group must list the same locations, which must stay
// unmodified until the Backward. nil computes every location; Infer ignores
// the list.
func (d *DCHAG) Visible(locs []int) { d.keep = locs }

// Forward consumes this rank's image shard [B, Cl, H, W] and returns the
// aggregated representation [B, T, E], identical on every rank.
func (d *DCHAG) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.b = x.Shape[0]
	locs := d.keep
	d.keep = nil
	return d.pass(x, locs, 0, d.b, false)
}

// Infer runs Forward's computation without caching activations for
// backward — the serving fast path. The AllGather still runs: inference
// keeps exactly the forward communication pattern, one token per owned
// partition across the group.
func (d *DCHAG) Infer(x *tensor.Tensor) *tensor.Tensor { return d.InferRange(x, 0, x.Shape[0]) }

// InferRange is Infer with the final shared layer run for samples [lo, hi)
// of the batch only: it returns their aggregated representation
// [hi-lo, T, E]. The local stage and the AllGather cover the whole batch —
// every rank's tokens of every sample are still gathered — but each rank of
// the group may finish a different range, so the replicated final layer
// costs each rank only its share. A one-partition stage returns rows
// [lo, hi) of its partial module's output.
func (d *DCHAG) InferRange(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	if lo < 0 || hi > x.Shape[0] || lo > hi {
		panic(fmt.Sprintf("core: DCHAG.InferRange [%d,%d) of a batch of %d", lo, hi, x.Shape[0]))
	}
	return d.pass(x, nil, lo, hi, true)
}

// pass is Forward and InferRange. The partials write their tokens into the
// stack the AllGather sends, and the AllGather moves samples [lo, hi) of
// each rank's stack straight from where it lies into the final layer's input:
// no copy in between. With locs (Visible) the stack holds the listed
// locations only, the final layer takes all of them, and its rows are
// scattered to their locations of the [B, T, E] result; the AllGather runs
// even when nothing is listed, so every rank's collective sequence is the
// same at every mask.
//
// dchag:hotpath
func (d *DCHAG) pass(x *tensor.Tensor, locs []int, lo, hi int, infer bool) *tensor.Tensor {
	b, t, e := x.Shape[0], d.Cfg.Tokens(), d.Cfg.Embed
	s := &d.gather[0]
	if infer {
		s = &d.gather[1]
	}
	// [k, rows, E]: one token per owned partition at each location the pass
	// computes; the final layer takes rows [rlo, rhi) of each.
	rows, rlo, rhi := b*t, lo*t, hi*t
	if locs != nil {
		rows, rlo, rhi = len(locs), 0, len(locs)
	}
	k := len(d.Partials)
	tensor.Poison(s.local, s.seq, s.full)
	s.local = tensor.EnsureShape(s.local, k, rows, e)
	d.localStage.pass(x, locs, s.local, infer)
	y := s.local.Data[rlo*e : rhi*e]
	if d.Final != nil {
		// Rank r's stack holds partitions [r*k, (r+1)*k): column r*k+ki of
		// the final layer's input [rhi-rlo, P, E].
		s.seq = tensor.EnsureShape(s.seq, rhi-rlo, d.Partitions, e)
		d.Comm.AllGatherEach(s.local, func(r int, part *tensor.Tensor) {
			if len(part.Data) != len(s.local.Data) {
				panic(fmt.Sprintf("core: rank %d gathered partition tokens %v, this rank holds %v", r, part.Shape, s.local.Shape))
			}
			for ki := 0; ki < k; ki++ {
				writeGroupToken(s.seq, part.Data[(ki*rows+rlo)*e:(ki*rows+rhi)*e], r*k+ki)
			}
		})
		switch {
		case infer:
			y = d.Final.Infer(s.seq).Data
		case rhi > rlo:
			y = d.Final.Forward(s.seq).Data
		}
	}
	if locs == nil {
		return s.result(y, hi-lo, t, e)
	}
	s.full = tensor.EnsureShape(s.full, b, t, e)
	for i, l := range locs {
		copy(s.full.Data[l*e:(l+1)*e], y[i*e:(i+1)*e])
	}
	return s.full
}

// Backward consumes the gradient of the aggregated representation [B, T, E]
// (identical on every rank) and accumulates the gradients of this rank's
// parameters. It forms no gradient of the image shard: the image is data,
// and nothing reads one. It performs no communication.
func (d *DCHAG) Backward(grad *tensor.Tensor) {
	t, e := d.Cfg.Tokens(), d.Cfg.Embed
	if len(grad.Shape) != 3 || grad.Shape[0] != d.b || grad.Shape[1] != t || grad.Shape[2] != e {
		panic(fmt.Sprintf("core: DCHAG.Backward want [%d,%d,%d], got %v", d.b, t, e, grad.Shape))
	}
	// [N, E]: the gradient at the locations the forward computed, in its
	// order.
	locs := d.localStage.locs
	dSeq := &d.dRows
	if locs == nil {
		d.dRows.Data, d.dRows.Shape = grad.Data, append(d.dRows.Shape[:0], d.b*t, e)
	} else {
		d.dvis = tensor.EnsureShape(d.dvis, len(locs), e)
		for i, l := range locs {
			copy(d.dvis.Data[i*e:(i+1)*e], grad.Data[l*e:(l+1)*e])
		}
		dSeq = d.dvis
	}
	if d.Final != nil && d.localStage.rows > 0 {
		// The input gradient of the rank's own partition tokens only: [k, N, E].
		s := &d.Final.own.attn
		s.Locs = locs
		dSeq = d.Final.Attn.BackwardTokens(dSeq, s, d.PartLo, d.PartHi)
	}
	d.localStage.backward(dSeq)
}

// Params returns this rank's parameters: the tokenizer and channel-embedding
// shards, the rank-local partial modules, and the replicated final layer.
func (d *DCHAG) Params() []*nn.Param { return append(d.LocalParams(), d.ReplicatedParams()...) }

// LocalParams returns only the rank-local (non-replicated) parameters; the
// complement of ReplicatedParams.
func (d *DCHAG) LocalParams() []*nn.Param { return d.localStage.params() }

// ReplicatedParams returns the parameters replicated across the D-CHAG group
// (the final shared cross-attention layer; none at one partition).
func (d *DCHAG) ReplicatedParams() []*nn.Param {
	if d.Final == nil {
		return nil
	}
	return d.Final.Params()
}
