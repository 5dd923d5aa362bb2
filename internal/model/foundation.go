package model

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Arch describes a foundation model: the channel-stage configuration plus
// the ViT depth, metadata tokens, and the regression head. The head predicts
// every channel's patch pixels per spatial token (dimension C*P*P), which
// serves both the MAE reconstruction objective (Fig. 10) and the
// image-to-image forecast objective (Sec. 5.2).
type Arch struct {
	core.Config
	// Depth is the number of transformer blocks in the ViT component.
	Depth int
	// MetaTokens is the number of learned metadata tokens prepended to the
	// spatial sequence (time / geolocation context in the paper's weather
	// models). Zero disables them.
	MetaTokens int
	// SwinWindow selects Swin-style windowed-attention ViT blocks with the
	// given window size when positive (paper Sec. 3.5: D-CHAG is agnostic to
	// the ViT architecture). Requires MetaTokens == 0, since windowed
	// attention operates on the intact spatial grid. Blocks alternate
	// unshifted and shifted windows.
	SwinWindow int
	// Partitions is the logical D-CHAG channel-partition count P; 0 means
	// one partition per rank. P is a property of the model, not the
	// topology: any rank count dividing P realizes the same logical model,
	// one rank included (NewSerialDCHAGEquivalent), which is what lets
	// checkpoints reshard across rank counts. P = 1 is the paper's baseline:
	// one aggregation module over every channel and no final layer.
	Partitions int
}

// validate returns the first rule a breaks, nil if none: core.Config's, a
// depth below 1, a negative count, more partitions than channels, and Swin
// blocks with metadata tokens or a window that does not tile the token grid.
// NewDistributed panics with its error; CheckRestore returns it first.
func (a Arch) validate() error {
	if err := a.Config.Validate(); err != nil {
		return err
	}
	gh, gw, win := a.ImgH/a.Patch, a.ImgW/a.Patch, a.SwinWindow
	switch {
	case a.Depth < 1 || a.MetaTokens < 0 || win < 0 || a.Partitions < 0 || a.Partitions > a.Channels:
		return fmt.Errorf("model: invalid arch %+v: depth must be positive, no count negative, partitions at most the channels", a)
	case win > 0 && (a.MetaTokens > 0 || gh%win != 0 || gw%win != 0):
		return fmt.Errorf("model: Swin window %d needs no meta tokens (has %d) and must tile the %dx%d token grid", win, a.MetaTokens, gh, gw)
	}
	return nil
}

// HeadDim returns the per-token regression width C*P*P.
func (a Arch) HeadDim() int { return a.Channels * a.Patch * a.Patch }

// ParamCount returns the exact number of learnable scalars of the serial
// model (used in reports; the distributed model's per-rank count differs by
// construction).
func (a Arch) ParamCount() int {
	m := NewSerial(a)
	return nn.NumParams(m.Params())
}

// StageName is the stage family every checkpoint manifest records under
// ckpt.MetaStage: every model is the D-CHAG stage, at every rank and
// partition count.
const StageName = "dchag"

// CheckRestore refuses a checkpoint that does not hold exactly the logical
// model a describes at a.Partitions (>= 1) partitions, and an a no model can
// be built from (validate), before it builds anything: one saved from
// another stage family or at another partition count, one that lacks a
// parameter or holds it at another shape, and one that holds a tensor the
// model has no parameter for. The partition count is a model property, so a
// mismatch means a different model, not a resharding. It checks against the
// whole logical model, built on one rank as ParamCount builds it, because a
// mesh rank holds only its own partitions' modules; every restore path runs
// it once, before any rank restores.
func (a Arch) CheckRestore(ck *ckpt.Checkpoint) error {
	if err := a.validate(); err != nil {
		return err
	}
	if saved, ok := ck.Manifest.Meta[ckpt.MetaStage]; ok && saved != StageName {
		return fmt.Errorf("model: checkpoint was saved from a %q stage, this model is %q", saved, StageName)
	}
	if ck.Manifest.Partitions != a.Partitions {
		return fmt.Errorf("model: checkpoint has %d logical partitions, model has %d (set the model's partition count from the manifest)",
			ck.Manifest.Partitions, a.Partitions)
	}
	return ck.Matches(NewSerialDCHAGEquivalent(a, a.Partitions).Params())
}

// FoundationModel is the generic architecture of the paper's Fig. 1:
//
//	channel stage (tokenize + aggregate)  ->  [B, T, E]
//	(optional masking with a learned mask token, for MAE)
//	positional embedding -> metadata tokens -> Depth transformer blocks
//	final LayerNorm -> linear head -> [B, T, C*P*P]
//
// The channel stage is D-CHAG at the model's partition count, the baseline's
// one aggregation module at one partition; everything downstream is
// identical in every case.
type FoundationModel struct {
	Arch  Arch
	Stage ChannelStage

	MaskTok *nn.Param
	Pos     *nn.PosEmbed
	Meta    *nn.MetaToken
	Blocks  []nn.Layer
	Norm    *nn.LayerNorm
	Head    *nn.Linear

	b    int
	mask *tensor.Tensor
	eval bool

	// share is the group Infer splits a batch over after the channel stage:
	// nil for a model without a group or on a one-rank group, and for
	// tensor-parallel blocks, which need every rank in step on the same
	// tokens.
	share *comm.Communicator
	pred  *tensor.Tensor // Infer's gathered predictions [B, T, C*P*P]

	masked, imasked *tensor.Tensor // mask-token substitution scratch
	dFull           *tensor.Tensor // meta-token gradient scatter scratch
	vis             []int          // the unmasked locations of a masked Forward
}

// NewSerial builds the single-process baseline model of the paper's Fig. 1:
// the D-CHAG model at one partition on one rank, whose one aggregation
// module takes every channel (a.Partitions is ignored).
func NewSerial(a Arch) *FoundationModel { return NewSerialDCHAGEquivalent(a, 1) }

// NewDistributed builds rank c.Rank()'s model with a D-CHAG channel stage.
// When tpViT is true the transformer blocks are tensor-parallel over the
// same group (the paper's D-CHAG + TP combination); otherwise the ViT is
// replicated, which is functionally identical.
func NewDistributed(a Arch, c *comm.Communicator, tpViT bool) *FoundationModel {
	if err := a.validate(); err != nil {
		panic(err)
	}
	t := a.Tokens()
	tpBlocks := tpViT && c.Size() > 1 && a.SwinWindow == 0
	m := &FoundationModel{
		Arch:  a,
		Stage: NewDCHAGStage(a.Config, c, a.Partitions),
		Pos:   nn.NewPosEmbed("fm.pos", t, a.Embed, nn.SubSeed(a.Seed, 20)),
		Norm:  nn.NewLayerNorm("fm.norm", a.Embed),
		Head:  nn.NewLinear("fm.head", a.Embed, a.HeadDim(), nn.SubSeed(a.Seed, 21)),
	}
	rng := tensor.NewRNG(nn.SubSeed(a.Seed, 22))
	m.MaskTok = nn.NewParam("fm.masktok", tensor.RandnScaled(rng, 0.02, a.Embed))
	if a.MetaTokens > 0 {
		m.Meta = nn.NewMetaToken("fm.meta", a.MetaTokens, a.Embed, nn.SubSeed(a.Seed, 23))
	}
	// The blocks run backward one after another, so they share one backward
	// workspace (nn.BlockGrads); each rank's model has its own.
	grads := new(nn.BlockGrads)
	for i := 0; i < a.Depth; i++ {
		name := fmt.Sprintf("fm.block%d", i)
		seed := nn.SubSeed(a.Seed, 24+i)
		switch {
		case a.SwinWindow > 0:
			gridH, gridW := a.ImgH/a.Patch, a.ImgW/a.Patch
			blk := nn.NewSwinBlock(name, a.Embed, a.Heads, gridH, gridW, a.SwinWindow, i%2 == 1, seed)
			blk.Grads = grads
			m.Blocks = append(m.Blocks, blk)
		case tpBlocks:
			blk := parallel.NewParallelTransformerBlock(name, a.Embed, a.Heads, seed, c)
			blk.Grads = grads
			m.Blocks = append(m.Blocks, blk)
		default:
			blk := nn.NewTransformerBlock(name, a.Embed, a.Heads, seed)
			blk.Grads = grads
			m.Blocks = append(m.Blocks, blk)
		}
	}
	if c.Size() > 1 && !tpBlocks {
		m.share = c
	}
	return m
}

// DCHAG returns the model's concrete D-CHAG stage, through any wrapper
// around Stage: Infer, SetInferDType and PartitionParams reach the stage this
// way, and so does every caller that needs its channel range or partition
// count.
func (m *FoundationModel) DCHAG() *DCHAGStage { return m.Stage.dchag() }

// SetInferDType selects the arithmetic of the no-grad Infer path for every
// matrix product in the model: the channel stage, the transformer blocks,
// and the head. Layer norms, softmaxes and embedding adds stay float64.
// With tensor.F32 the weights are prepacked into float32 panels, so call it
// again after every optimizer step that mutates the weights; with tensor.F64
// (the default) Infer is bitwise identical to Forward.
func (m *FoundationModel) SetInferDType(dt tensor.DType) {
	m.DCHAG().SetInferDType(dt)
	for _, blk := range m.Blocks {
		nn.SetInferDType(blk, dt)
	}
	m.Head.SetInferDType(dt)
}

// SetEval switches the model between training mode (the default) and
// inference mode. In eval mode Forward routes through Infer — the no-grad
// fast path that skips all activation caching — and Backward panics, so an
// accidental training step on a serving model fails loudly instead of
// corrupting state. Outputs are bitwise identical in both modes.
func (m *FoundationModel) SetEval(on bool) { m.eval = on }

// Infer is the no-grad fast path of Forward: the same computation, bit for
// bit, with no activations cached for backward (the tokenizer's im2col
// matrices, the attention weights, and the layer-norm statistics are the
// dominant savings). Every stage, aggregator and block this repository
// builds has its own no-grad path, so Infer does not disturb a pending
// Forward/Backward pair and can evaluate mid-training (pinned by
// TestInferLeavesTrainingStateUsable). Serving engines sidestep the
// question entirely: each worker owns its own eval-mode replica.
//
// Ranks that share a group and run replicated blocks split the batch after
// the channel stage's AllGather: rank r of q finishes samples
// [r·B/q, (r+1)·B/q) — the final shared layer, mask, positional and meta
// tokens, the blocks, the norm and the head — and one AllGather of the
// predictions hands every rank the whole [B, T, C*P*P]. The share is the
// whole batch without a group or on a group of one, under tensor-parallel
// blocks (every rank must be in step on the same tokens) and when B < q (a
// rank would sit idle).
func (m *FoundationModel) Infer(x, mask *tensor.Tensor) *tensor.Tensor {
	b := x.Shape[0]
	t, e := m.Arch.Tokens(), m.Arch.Embed
	// split is the same on every rank of the group, so every rank takes part
	// in the prediction AllGather or none does.
	lo, hi, split := 0, b, m.share != nil && b >= m.share.Size()
	if split {
		q, r := m.share.Size(), m.share.Rank()
		lo, hi = r*b/q, (r+1)*b/q
	}
	feat := m.DCHAG().InferRange(x, lo, hi)
	if mask != nil {
		if len(mask.Shape) != 2 || mask.Shape[0] != b || mask.Shape[1] != t {
			panic(fmt.Sprintf("model: mask want [%d,%d], got %v", b, t, mask.Shape))
		}
		m.imasked = tensor.EnsureShape(m.imasked, feat.Shape...)
		copy(m.imasked.Data, feat.Data)
		feat = m.imasked
		for l, v := range mask.Data[lo*t : hi*t] {
			if v != 0 {
				copy(feat.Data[l*e:(l+1)*e], m.MaskTok.W.Data)
			}
		}
	}
	feat = m.Pos.Infer(feat)
	if m.Meta != nil {
		feat = m.Meta.Infer(feat)
	}
	for _, blk := range m.Blocks {
		feat = nn.Infer(blk, feat)
	}
	feat = m.Norm.Infer(feat)
	if m.Meta != nil {
		feat = tensor.SliceAxis(feat, 1, m.Arch.MetaTokens, m.Arch.MetaTokens+t)
	}
	pred := m.Head.Infer(feat)
	if !split {
		return pred
	}
	q, d := m.share.Size(), m.Arch.HeadDim()
	m.pred = tensor.EnsureShape(m.pred, b, t, d)
	m.share.AllGatherEach(pred, func(r int, part *tensor.Tensor) {
		copy(m.pred.Data[r*b/q*t*d:(r+1)*b/q*t*d], part.Data)
	})
	return m.pred
}

// Forward runs the model on this rank's image shard x [B, Cl, H, W]. If
// mask [B, T] is non-nil, spatial tokens with mask value 1 are replaced by
// the learned mask token before the ViT (the MAE objective of Fig. 10);
// pass nil for the forecast objective. Returns predictions [B, T, C*P*P].
// In eval mode (SetEval) it delegates to Infer.
//
// A masked Forward has the channel stage compute only the unmasked
// locations (core.DCHAG.Visible), as an MAE encoder sees only the visible
// patches: the masked rows' stage output would be overwritten and their
// gradient is zero, so the losses keep their bits. The stage is still
// called through Stage, so a wrapper around it sees the pass.
func (m *FoundationModel) Forward(x, mask *tensor.Tensor) *tensor.Tensor {
	if m.eval {
		return m.Infer(x, mask)
	}
	m.b = x.Shape[0]
	t, e := m.Arch.Tokens(), m.Arch.Embed
	m.mask = mask
	var vis []int
	if mask != nil {
		if len(mask.Shape) != 2 || mask.Shape[0] != m.b || mask.Shape[1] != t {
			panic(fmt.Sprintf("model: mask want [%d,%d], got %v", m.b, t, mask.Shape))
		}
		vis = m.visible(mask)
	}
	m.DCHAG().Visible(vis)
	feat := m.Stage.Forward(x)
	if mask != nil {
		m.masked = tensor.EnsureShape(m.masked, feat.Shape...)
		copy(m.masked.Data, feat.Data)
		feat = m.masked
		for l, v := range mask.Data {
			if v != 0 {
				copy(feat.Data[l*e:(l+1)*e], m.MaskTok.W.Data)
			}
		}
	}
	feat = m.Pos.Forward(feat)
	if m.Meta != nil {
		feat = m.Meta.Forward(feat)
	}
	for _, blk := range m.Blocks {
		feat = blk.Forward(feat)
	}
	feat = m.Norm.Forward(feat)
	if m.Meta != nil {
		feat = tensor.SliceAxis(feat, 1, m.Arch.MetaTokens, m.Arch.MetaTokens+t)
	}
	return m.Head.Forward(feat)
}

// visible lists the locations b·T + t that mask [B, T] leaves unmasked, in
// a model-owned slice that stays unmodified until the next Forward — nil
// when nothing is masked, so such a step runs the stage's whole pass. A
// step with every location masked gets an empty list, never nil: the stage
// then computes no location.
func (m *FoundationModel) visible(mask *tensor.Tensor) []int {
	if m.vis == nil {
		m.vis = make([]int, 0, len(mask.Data))
	}
	m.vis = m.vis[:0]
	for l, v := range mask.Data {
		if v == 0 {
			m.vis = append(m.vis, l)
		}
	}
	if len(m.vis) == len(mask.Data) {
		return nil
	}
	return m.vis
}

// Backward consumes the prediction gradient [B, T, C*P*P] and accumulates
// every parameter's gradient; it forms no gradient of the image, which is
// data. It panics in eval mode: an inference-mode model has no cached
// activations to differentiate.
func (m *FoundationModel) Backward(grad *tensor.Tensor) {
	if m.eval {
		panic("model: Backward on a model in eval mode (SetEval(false) to train)")
	}
	t, e := m.Arch.Tokens(), m.Arch.Embed
	d := m.Head.Backward(grad) // [B, T, E]
	if m.Meta != nil {
		// Scatter back into the full sequence; meta rows receive no head
		// gradient.
		m.dFull = tensor.EnsureShape(m.dFull, m.b, m.Arch.MetaTokens+t, e)
		m.dFull.Zero()
		for bi := 0; bi < m.b; bi++ {
			src := d.Data[bi*t*e : (bi+1)*t*e]
			dst := m.dFull.Data[(bi*(m.Arch.MetaTokens+t)+m.Arch.MetaTokens)*e:]
			copy(dst[:t*e], src)
		}
		d = m.dFull
	}
	d = m.Norm.Backward(d)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		d = m.Blocks[i].Backward(d)
	}
	if m.Meta != nil {
		d = m.Meta.Backward(d)
	}
	d = m.Pos.Backward(d)
	if m.mask != nil {
		// Masked positions fed the mask token, not the stage: route their
		// gradient to the mask token. The stage computed only the other
		// locations and reads only their rows.
		for l, v := range m.mask.Data {
			if v != 0 {
				for j, g := range d.Data[l*e : (l+1)*e] {
					m.MaskTok.Grad.Data[j] += g
				}
			}
		}
	}
	m.Stage.Backward(d)
}

// Params returns all model parameters (stage + ViT + head).
func (m *FoundationModel) Params() []*nn.Param {
	ps := append([]*nn.Param(nil), m.Stage.Params()...)
	ps = append(ps, m.MaskTok)
	ps = append(ps, m.Pos.Params()...)
	if m.Meta != nil {
		ps = append(ps, m.Meta.Params()...)
	}
	for _, blk := range m.Blocks {
		ps = append(ps, blk.Params()...)
	}
	ps = append(ps, m.Norm.Params()...)
	ps = append(ps, m.Head.Params()...)
	return ps
}

// PartitionParams splits the model's parameters into rank-local shards and
// group-replicated parameters, each in Params order. Distributed
// global-gradient-norm computations (clipping) sum local shards across the
// group and count replicated parameters once, reproducing the serial model's
// norm exactly.
func (m *FoundationModel) PartitionParams() (local, replicated []*nn.Param) {
	stage := m.DCHAG()
	local = append(local, stage.LocalParams()...)
	replicated = append(replicated, stage.ReplicatedParams()...)
	replicated = append(replicated, m.MaskTok)
	replicated = append(replicated, m.Pos.Params()...)
	if m.Meta != nil {
		replicated = append(replicated, m.Meta.Params()...)
	}
	for _, blk := range m.Blocks {
		if pb, ok := blk.(*parallel.ParallelTransformerBlock); ok {
			l, r := pb.Partition()
			local = append(local, l...)
			replicated = append(replicated, r...)
		} else {
			replicated = append(replicated, blk.Params()...)
		}
	}
	replicated = append(replicated, m.Norm.Params()...)
	replicated = append(replicated, m.Head.Params()...)
	return local, replicated
}

// PredictImage runs a forecast forward pass and unpatchifies the prediction
// into image space [B, C, H, W]. It uses the no-grad fast path — prediction
// never feeds a Backward.
func (m *FoundationModel) PredictImage(x *tensor.Tensor) *tensor.Tensor {
	pred := m.Infer(x, nil)
	return Unpatchify(pred, m.Arch.Channels, m.Arch.ImgH, m.Arch.ImgW, m.Arch.Patch)
}
