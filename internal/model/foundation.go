package model

import (
	"fmt"

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
	// one partition per rank (the historical layout). P is a property of the
	// model, not the topology: any rank count dividing P realizes the same
	// logical model, which is what lets checkpoints reshard across rank
	// counts (including to serial via NewSerialDCHAGEquivalent(a, P)).
	Partitions int
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

// FoundationModel is the generic architecture of the paper's Fig. 1:
//
//	channel stage (tokenize + aggregate)  ->  [B, T, E]
//	(optional masking with a learned mask token, for MAE)
//	positional embedding -> metadata tokens -> Depth transformer blocks
//	final LayerNorm -> linear head -> [B, T, C*P*P]
//
// The channel stage is pluggable (serial or D-CHAG); everything downstream
// is identical in both cases.
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

	masked, imasked *tensor.Tensor // mask-token substitution scratch
	dFull           *tensor.Tensor // meta-token gradient scatter scratch
	dMasked         *tensor.Tensor // mask gradient-routing scratch
}

// NewSerial builds the single-process baseline model.
func NewSerial(a Arch) *FoundationModel {
	return build(a, NewSerialStage(a.Config), nil, false)
}

// NewDistributed builds rank c.Rank()'s model with a D-CHAG channel stage.
// When tpViT is true the transformer blocks are tensor-parallel over the
// same group (the paper's D-CHAG + TP combination); otherwise the ViT is
// replicated, which is functionally identical.
func NewDistributed(a Arch, c *comm.Communicator, tpViT bool) *FoundationModel {
	return build(a, NewDCHAGStage(a.Config, c, a.Partitions), c, tpViT)
}

func build(a Arch, stage ChannelStage, c *comm.Communicator, tpViT bool) *FoundationModel {
	if a.Depth < 1 {
		panic(fmt.Sprintf("model: depth %d must be positive", a.Depth))
	}
	t := a.Tokens()
	m := &FoundationModel{
		Arch:  a,
		Stage: stage,
		Pos:   nn.NewPosEmbed("fm.pos", t, a.Embed, nn.SubSeed(a.Seed, 20)),
		Norm:  nn.NewLayerNorm("fm.norm", a.Embed),
		Head:  nn.NewLinear("fm.head", a.Embed, a.HeadDim(), nn.SubSeed(a.Seed, 21)),
	}
	rng := tensor.NewRNG(nn.SubSeed(a.Seed, 22))
	m.MaskTok = nn.NewParam("fm.masktok", tensor.RandnScaled(rng, 0.02, a.Embed))
	if a.MetaTokens > 0 {
		m.Meta = nn.NewMetaToken("fm.meta", a.MetaTokens, a.Embed, nn.SubSeed(a.Seed, 23))
	}
	if a.SwinWindow > 0 && a.MetaTokens > 0 {
		panic("model: SwinWindow requires MetaTokens == 0 (windowed attention needs the intact spatial grid)")
	}
	for i := 0; i < a.Depth; i++ {
		name := fmt.Sprintf("fm.block%d", i)
		seed := nn.SubSeed(a.Seed, 24+i)
		switch {
		case a.SwinWindow > 0:
			gridH, gridW := a.ImgH/a.Patch, a.ImgW/a.Patch
			m.Blocks = append(m.Blocks, nn.NewSwinBlock(name, a.Embed, a.Heads, gridH, gridW, a.SwinWindow, i%2 == 1, seed))
		case tpViT && c != nil && c.Size() > 1:
			m.Blocks = append(m.Blocks, parallel.NewParallelTransformerBlock(name, a.Embed, a.Heads, seed, c))
		default:
			m.Blocks = append(m.Blocks, nn.NewTransformerBlock(name, a.Embed, a.Heads, seed))
		}
	}
	return m
}

// SetInferDType selects the arithmetic of the no-grad Infer path for every
// matrix product in the model: the channel stage, the transformer blocks,
// and the head. Layer norms, softmaxes and embedding adds stay float64.
// With tensor.F32 the weights are prepacked into float32 panels, so call it
// again after every optimizer step that mutates the weights; with tensor.F64
// (the default) Infer is bitwise identical to Forward.
func (m *FoundationModel) SetInferDType(dt tensor.DType) {
	if d, ok := m.Stage.(nn.DTyper); ok {
		d.SetInferDType(dt)
	}
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
// dominant savings). For architectures whose layers all implement the fast
// path — every stage and block this repository builds except the Perceiver
// partial aggregator, which falls back to its cache-writing Forward — Infer
// does not disturb a pending Forward/Backward pair, so it can evaluate
// mid-training (pinned by TestInferLeavesTrainingStateUsable). Serving
// engines sidestep the question entirely: each worker owns its own
// eval-mode replica.
func (m *FoundationModel) Infer(x, mask *tensor.Tensor) *tensor.Tensor {
	b := x.Shape[0]
	t, e := m.Arch.Tokens(), m.Arch.Embed
	// Every ChannelStage is an nn.Layer; nn.Infer takes the stage's no-grad
	// fast path when it has one.
	feat := nn.Infer(m.Stage, x)
	if mask != nil {
		if len(mask.Shape) != 2 || mask.Shape[0] != b || mask.Shape[1] != t {
			panic(fmt.Sprintf("model: mask want [%d,%d], got %v", b, t, mask.Shape))
		}
		m.imasked = tensor.EnsureShape(m.imasked, feat.Shape...)
		copy(m.imasked.Data, feat.Data)
		feat = m.imasked
		for bi := 0; bi < b; bi++ {
			for ti := 0; ti < t; ti++ {
				if mask.At(bi, ti) != 0 {
					copy(feat.Data[(bi*t+ti)*e:(bi*t+ti+1)*e], m.MaskTok.W.Data)
				}
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
	return m.Head.Infer(feat)
}

// Forward runs the model on this rank's image shard x [B, Cl, H, W]. If
// mask [B, T] is non-nil, spatial tokens with mask value 1 are replaced by
// the learned mask token before the ViT (the MAE objective of Fig. 10);
// pass nil for the forecast objective. Returns predictions [B, T, C*P*P].
// In eval mode (SetEval) it delegates to Infer.
func (m *FoundationModel) Forward(x, mask *tensor.Tensor) *tensor.Tensor {
	if m.eval {
		return m.Infer(x, mask)
	}
	m.b = x.Shape[0]
	t, e := m.Arch.Tokens(), m.Arch.Embed
	feat := m.Stage.Forward(x)
	m.mask = mask
	if mask != nil {
		if len(mask.Shape) != 2 || mask.Shape[0] != m.b || mask.Shape[1] != t {
			panic(fmt.Sprintf("model: mask want [%d,%d], got %v", m.b, t, mask.Shape))
		}
		m.masked = tensor.EnsureShape(m.masked, feat.Shape...)
		copy(m.masked.Data, feat.Data)
		feat = m.masked
		for bi := 0; bi < m.b; bi++ {
			for ti := 0; ti < t; ti++ {
				if mask.At(bi, ti) != 0 {
					copy(feat.Data[(bi*t+ti)*e:(bi*t+ti+1)*e], m.MaskTok.W.Data)
				}
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

// Backward consumes the prediction gradient [B, T, C*P*P] and returns the
// gradient of this rank's image shard. It panics in eval mode: an
// inference-mode model has no cached activations to differentiate.
func (m *FoundationModel) Backward(grad *tensor.Tensor) *tensor.Tensor {
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
		// gradient to the mask token and zero it toward the stage.
		m.dMasked = tensor.EnsureShape(m.dMasked, d.Shape...)
		copy(m.dMasked.Data, d.Data)
		d = m.dMasked
		for bi := 0; bi < m.b; bi++ {
			for ti := 0; ti < t; ti++ {
				if m.mask.At(bi, ti) != 0 {
					row := d.Data[(bi*t+ti)*e : (bi*t+ti+1)*e]
					for j, v := range row {
						m.MaskTok.Grad.Data[j] += v
						row[j] = 0
					}
				}
			}
		}
	}
	return m.Stage.Backward(d)
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
// group-replicated parameters. Distributed global-gradient-norm computations
// (clipping) sum local shards across the group and count replicated
// parameters once, reproducing the serial model's norm exactly. For serial
// models every parameter is replicated (counted once).
func (m *FoundationModel) PartitionParams() (local, replicated []*nn.Param) {
	if stage, ok := m.Stage.(*DCHAGStage); ok {
		local = append(local, stage.LocalParams()...)
		replicated = append(replicated, stage.ReplicatedParams()...)
	} else {
		replicated = append(replicated, m.Stage.Params()...)
	}
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
