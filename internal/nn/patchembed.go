package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// PatchEmbed is the tokenization stage of the paper's architecture (Fig. 1):
// every channel of a multi-channel 2D image is divided into PxP patches and
// each patch is projected to the embedding dimension by a convolution that
// is *independent per channel* (equivalent to a per-channel linear layer
// over flattened patches, which is how it is implemented here).
//
// A PatchEmbed may own only a contiguous shard [ChLo, ChHi) of the global
// channel range: this is exactly the "distributed tokenization" of paper
// Sec. 3.1. Per-channel weights are seeded by the *global* channel index, so
// any sharding reproduces the serial layer's parameters bit-for-bit.
type PatchEmbed struct {
	ImgH, ImgW int
	Patch      int
	Embed      int
	ChLo, ChHi int // global channel range owned by this instance

	Weight *Param // [localC, P*P, E]
	Bias   *Param // [localC, E]

	cols []*tensor.Tensor // cached im2col matrices per local channel
	b    int              // cached batch size

	icol *tensor.Tensor // Infer im2col scratch (not cached for backward)
	dy   *tensor.Tensor // per-channel gathered gradient scratch
	dcol *tensor.Tensor // per-channel patch-gradient scratch
	dimg *tensor.Tensor // Backward image-gradient scratch

	// The channel-major entry points' own storage; never grown by a caller
	// that brings its own views.
	out, iout *tensor.Tensor
	views     []TokenView

	inferDType tensor.DType
	pb32       []*tensor.PackedB32 // per-channel prepacked f32 weights
	wv, gv     tensor.Tensor       // headers over one channel of Weight.W, Weight.Grad
	sv         tensor.Tensor       // header over one sample's rows of an im2col matrix
}

// channelView points the layer-owned header hdr at local channel c's
// [P*P, E] slice of t [localC, P*P, E] — the weights or their gradient — so
// hot paths build no tensor header per call and none outlives a swap of t's
// backing array (a checkpoint load).
func (p *PatchEmbed) channelView(hdr, t *tensor.Tensor, c int) *tensor.Tensor {
	pp := p.Patch * p.Patch
	hdr.Data = t.Data[c*pp*p.Embed : (c+1)*pp*p.Embed]
	hdr.Shape = append(hdr.Shape[:0], pp, p.Embed)
	return hdr
}

// SetInferDType selects the arithmetic of the no-grad Infer path. F32
// prepacks every channel's projection weights; call again after the weights
// change.
func (p *PatchEmbed) SetInferDType(dt tensor.DType) {
	p.inferDType = dt
	p.pb32 = nil
	if dt == tensor.F32 {
		p.pb32 = make([]*tensor.PackedB32, p.LocalChannels())
		for c := range p.pb32 {
			p.pb32[c] = tensor.PackB32(p.channelView(&p.wv, p.Weight.W, c))
		}
	}
}

// NewPatchEmbed constructs a tokenizer over all channels [0, channels).
func NewPatchEmbed(name string, channels, imgH, imgW, patch, embed int, seed int64) *PatchEmbed {
	return NewPatchEmbedShard(name, 0, channels, imgH, imgW, patch, embed, seed)
}

// NewPatchEmbedShard constructs a tokenizer owning global channels
// [chLo, chHi). Weights for channel c are drawn from SubSeed(seed, c), so a
// shard matches the corresponding slice of the full layer.
func NewPatchEmbedShard(name string, chLo, chHi, imgH, imgW, patch, embed int, seed int64) *PatchEmbed {
	if imgH%patch != 0 || imgW%patch != 0 {
		panic(fmt.Sprintf("nn: image %dx%d not divisible by patch %d", imgH, imgW, patch))
	}
	if chLo < 0 || chHi <= chLo {
		panic(fmt.Sprintf("nn: invalid channel shard [%d,%d)", chLo, chHi))
	}
	localC := chHi - chLo
	pp := patch * patch
	w := tensor.New(localC, pp, embed)
	for c := 0; c < localC; c++ {
		rng := tensor.NewRNG(SubSeed(seed, chLo+c))
		cw := tensor.XavierUniform(rng, pp, embed)
		copy(w.Data[c*pp*embed:(c+1)*pp*embed], cw.Data)
	}
	return &PatchEmbed{
		ImgH: imgH, ImgW: imgW, Patch: patch, Embed: embed,
		ChLo: chLo, ChHi: chHi,
		Weight: NewParam(name+".weight", w),
		Bias:   NewParam(name+".bias", tensor.New(localC, embed)),
	}
}

// LocalChannels returns the number of channels this shard owns.
func (p *PatchEmbed) LocalChannels() int { return p.ChHi - p.ChLo }

// Tokens returns the number of spatial tokens per channel.
func (p *PatchEmbed) Tokens() int { return (p.ImgH / p.Patch) * (p.ImgW / p.Patch) }

// TokenView locates one channel's tokens [B, T, E] inside a larger buffer: the
// E values of sample b's token t start at Data[b*BatchStride+t*TokenStride].
// It is how the tokenizer writes each channel straight into the layout its
// consumer reads, and reads each channel's gradient from where its producer
// left it (DESIGN.md "Channel stage: one token layout").
type TokenView struct {
	Data                     []float64
	BatchStride, TokenStride int
}

// ChannelViews appends the view of every channel of the channel-major token
// tensor x [B, C, T, E] to dst.
func ChannelViews(dst []TokenView, x *tensor.Tensor) []TokenView {
	c, t, e := x.Shape[1], x.Shape[2], x.Shape[3]
	for ci := 0; ci < c; ci++ {
		dst = append(dst, TokenView{Data: x.Data[ci*t*e:], BatchStride: c * t * e, TokenStride: e})
	}
	return dst
}

// Forward tokenizes x of shape [B, localC, H, W] into [B, localC, T, E].
// The channel dimension of x must already be this shard's local slice.
func (p *PatchEmbed) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.out = tensor.EnsureShape(p.out, x.Shape[0], p.LocalChannels(), p.Tokens(), p.Embed)
	p.views = ChannelViews(p.views[:0], p.out)
	p.Tokenize(x, p.views, nil, false)
	return p.out
}

// Infer tokenizes without caching the im2col matrices for backward — the
// dominant activation cost of the tokenizer.
func (p *PatchEmbed) Infer(x *tensor.Tensor) *tensor.Tensor {
	p.iout = tensor.EnsureShape(p.iout, x.Shape[0], p.LocalChannels(), p.Tokens(), p.Embed)
	p.views = ChannelViews(p.views[:0], p.iout)
	p.Tokenize(x, p.views, nil, true)
	return p.iout
}

// Tokenize is the one body behind every tokenizing entry point. It tokenizes
// x [B, localC, H, W], writing local channel c's tokens through dst[c] as
// (patches@W_c + b_c) + ids.Table[c]; a nil ids adds no channel-ID row. With
// infer it keeps nothing for a Backward and runs in the arithmetic
// SetInferDType selected. Forward and Infer are Tokenize on channel-major
// views of a tensor the layer owns.
func (p *PatchEmbed) Tokenize(x *tensor.Tensor, dst []TokenView, ids *ChannelEmbed, infer bool) {
	localC := p.LocalChannels()
	if len(x.Shape) != 4 || x.Shape[1] != localC || x.Shape[2] != p.ImgH || x.Shape[3] != p.ImgW {
		panic(fmt.Sprintf("nn: PatchEmbed.Tokenize want [B,%d,%d,%d], got %v", localC, p.ImgH, p.ImgW, x.Shape))
	}
	p.mustCover(dst, ids)
	b, rows := x.Shape[0], x.Shape[0]*p.Tokens()
	var col *tensor.Tensor
	if infer {
		p.icol = tensor.EnsureShape(p.icol, rows, p.Patch*p.Patch)
		col = p.icol
	} else {
		p.b = b
		if len(p.cols) != localC {
			p.cols = make([]*tensor.Tensor, localC)
		}
	}
	for c := 0; c < localC; c++ {
		if !infer {
			// The per-channel im2col caches are layer-owned and rebuilt in
			// place each step.
			p.cols[c] = tensor.EnsureShape(p.cols[c], rows, p.Patch*p.Patch)
			col = p.cols[c]
		}
		p.im2col(col, x, c)
		p.project(col, c, b, dst[c], ids.row(c), infer)
	}
}

// mustCover checks that a pass was handed one view per local channel and a
// channel-ID table over the same shard.
func (p *PatchEmbed) mustCover(views []TokenView, ids *ChannelEmbed) {
	if len(views) != p.LocalChannels() || (ids != nil && (ids.ChLo != p.ChLo || ids.ChHi != p.ChHi || ids.Embed != p.Embed)) {
		panic(fmt.Sprintf("nn: PatchEmbed over channels [%d,%d) needs as many token views and channel IDs over the same shard, got %d views", p.ChLo, p.ChHi, len(views)))
	}
}

// project tokenizes local channel c's im2col matrix col through dst: the
// product writes each token straight to where it lives, the bias and then
// the channel-ID row id (when there is one, the same row for every token)
// added as the kernel stores it — each value is written to the
// channel-token tensor once. Where the view's samples follow one another at
// its token stride (a group's input) that is one product; otherwise one per
// sample. With infer it dispatches on the inference dtype.
//
// dchag:hotpath — the per-channel projection of the tokenizer; headers are
// layer-owned.
func (p *PatchEmbed) project(col *tensor.Tensor, c, b int, dst TokenView, id []float64, infer bool) {
	t, e := p.Tokens(), p.Embed
	ep := tensor.Epilogue{Bias: p.Bias.W.Data[c*e:][:e], Res: id}
	if b == 1 || dst.BatchStride == t*dst.TokenStride {
		p.product(dst.Data, dst.TokenStride, col, c, infer, ep)
		return
	}
	pp := p.Patch * p.Patch
	p.sv.Shape = append(p.sv.Shape[:0], t, pp)
	for bi := 0; bi < b; bi++ {
		p.sv.Data = col.Data[bi*t*pp : (bi+1)*t*pp]
		p.product(dst.Data[bi*dst.BatchStride:], dst.TokenStride, &p.sv, c, infer, ep)
	}
}

// product writes patches@W_c + ep for channel c at rows ldc apart in dst.
func (p *PatchEmbed) product(dst []float64, ldc int, patches *tensor.Tensor, c int, infer bool, ep tensor.Epilogue) {
	if infer && p.inferDType == tensor.F32 && p.pb32 != nil {
		tensor.AffinePackedF32Into(dst, ldc, patches, p.pb32[c], ep)
		return
	}
	tensor.AffineInto(dst, ldc, patches, p.channelView(&p.wv, p.Weight.W, c), false, ep)
}

// Backward consumes dOut of shape [B, localC, T, E], accumulates weight and
// bias gradients, and returns the gradient with respect to the input image
// shard [B, localC, H, W].
func (p *PatchEmbed) Backward(grad *tensor.Tensor) *tensor.Tensor {
	localC, t := p.LocalChannels(), p.Tokens()
	if len(grad.Shape) != 4 || grad.Shape[0] != p.b || grad.Shape[1] != localC || grad.Shape[2] != t || grad.Shape[3] != p.Embed {
		panic(fmt.Sprintf("nn: PatchEmbed.Backward want [%d,%d,%d,%d], got %v", p.b, localC, t, p.Embed, grad.Shape))
	}
	p.views = ChannelViews(p.views[:0], grad)
	return p.BackwardFrom(p.views, nil)
}

// BackwardFrom is Backward reading local channel c's token gradient through
// src[c], for the batch the last training Tokenize saw. With ids it also
// accumulates the channel-ID table's gradient — the same column sums as the
// bias gradient, from the same read.
func (p *PatchEmbed) BackwardFrom(src []TokenView, ids *ChannelEmbed) *tensor.Tensor {
	if p.cols == nil {
		panic("nn: PatchEmbed.Backward before Forward")
	}
	p.mustCover(src, ids)
	rows := p.b * p.Tokens()
	p.dimg = tensor.EnsureShape(p.dimg, p.b, p.LocalChannels(), p.ImgH, p.ImgW)
	p.dy = tensor.EnsureShape(p.dy, rows, p.Embed)
	p.dcol = tensor.EnsureShape(p.dcol, rows, p.Patch*p.Patch)
	for c := range src {
		p.backwardChannel(src[c], c, ids.gradRow(c))
	}
	return p.dimg
}

// backwardChannel accumulates channel c's weight, bias and (with idGrad)
// channel-ID gradients and scatters its patch gradient into the
// image-gradient scratch.
//
// dchag:hotpath — per-channel tokenizer backward; dW accumulates directly
// into the sliced gradient with no intermediate product tensor.
func (p *PatchEmbed) backwardChannel(src TokenView, c int, idGrad []float64) {
	t, e := p.Tokens(), p.Embed
	// Gather dY_c [B*T, E] from where it lives, then sum its columns into the
	// bias and channel-ID gradients in row order.
	for bi := 0; bi < p.b; bi++ {
		for ti := 0; ti < t; ti++ {
			copy(p.dy.Data[(bi*t+ti)*e:][:e], src.Data[bi*src.BatchStride+ti*src.TokenStride:][:e])
		}
	}
	rows := p.b * t
	tensor.AccumRows(p.Bias.Grad.Data[c*e:][:e], p.dy.Data, e, rows, nil)
	if idGrad != nil {
		tensor.AccumRows(idGrad[:e], p.dy.Data, e, rows, nil)
	}
	// dW_c += col^T @ dY, accumulated straight into the gradient slice.
	tensor.TMatMulAccInto(p.channelView(&p.gv, p.Weight.Grad, c), p.cols[c], p.dy)
	// dCol = dY @ W_c^T, then col2im back onto the image gradient.
	tensor.MatMulTInto(p.dcol, p.dy, p.channelView(&p.wv, p.Weight.W, c)) // [B*T, P*P]
	p.col2im(p.dcol, p.dimg, c)
}

// im2col extracts the [B*T, P*P] patch matrix for local channel c into col.
//
// dchag:hotpath — per-channel patch gather; col is layer-owned scratch.
func (p *PatchEmbed) im2col(col, x *tensor.Tensor, c int) {
	b := x.Shape[0]
	localC := p.LocalChannels()
	ph, pw := p.ImgH/p.Patch, p.ImgW/p.Patch
	t := ph * pw
	pp := p.Patch * p.Patch
	for bi := 0; bi < b; bi++ {
		base := (bi*localC + c) * p.ImgH * p.ImgW
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				ti := py*pw + px
				dst := col.Data[(bi*t+ti)*pp : (bi*t+ti+1)*pp]
				for dy := 0; dy < p.Patch; dy++ {
					srcOff := base + (py*p.Patch+dy)*p.ImgW + px*p.Patch
					copy(dst[dy*p.Patch:(dy+1)*p.Patch], x.Data[srcOff:srcOff+p.Patch])
				}
			}
		}
	}
}

// col2im scatters a [B*T, P*P] patch-gradient matrix back into the image
// gradient for local channel c. Patches do not overlap, so this is a pure
// scatter.
func (p *PatchEmbed) col2im(dcol, dimg *tensor.Tensor, c int) {
	b := dimg.Shape[0]
	localC := p.LocalChannels()
	ph, pw := p.ImgH/p.Patch, p.ImgW/p.Patch
	t := ph * pw
	pp := p.Patch * p.Patch
	for bi := 0; bi < b; bi++ {
		base := (bi*localC + c) * p.ImgH * p.ImgW
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				ti := py*pw + px
				src := dcol.Data[(bi*t+ti)*pp : (bi*t+ti+1)*pp]
				for dy := 0; dy < p.Patch; dy++ {
					dstOff := base + (py*p.Patch+dy)*p.ImgW + px*p.Patch
					copy(dimg.Data[dstOff:dstOff+p.Patch], src[dy*p.Patch:(dy+1)*p.Patch])
				}
			}
		}
	}
}

// Params returns the tokenizer's parameters.
func (p *PatchEmbed) Params() []*Param { return []*Param{p.Weight, p.Bias} }
