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

	col  *tensor.Tensor // cached im2col matrices [localC, rows, P*P]
	b    int            // cached batch size
	locs []int          // the cached pass's locations; nil: every one
	offs []int          // where each cached row's patch starts in local channel 0 (patchOffsets)

	icol  *tensor.Tensor // Infer's im2col scratch [localC, rows, P*P] (not cached for backward)
	ioffs []int          // Infer's patch offsets
	dy    *tensor.Tensor // per-channel gathered gradient scratch
	dcol  *tensor.Tensor // per-channel patch-gradient scratch
	dimg  *tensor.Tensor // Backward image-gradient scratch

	out, iout *tensor.Tensor // Forward's and Infer's tokens

	inferDType tensor.DType
	pb32       []*tensor.PackedB32 // per-channel prepacked f32 weights
	wv, gv     tensor.Tensor       // headers over one channel of Weight.W, Weight.Grad
	cv, sv     tensor.Tensor       // headers over one channel's im2col matrix, one sample's rows of it
	pv         tensor.Tensor       // header over one channel's cached im2col matrix read as an image (AccumPatches)
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

// Forward tokenizes x of shape [B, localC, H, W] into [B, localC, T, E].
// The channel dimension of x must already be this shard's local slice.
func (p *PatchEmbed) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.out = tensor.EnsureShape(p.out, x.Shape[0], p.LocalChannels(), p.Tokens(), p.Embed)
	return p.tokenize(p.out, x, false)
}

// Infer tokenizes without caching the im2col matrices for backward — the
// dominant activation cost of the tokenizer — in the arithmetic
// SetInferDType selected.
func (p *PatchEmbed) Infer(x *tensor.Tensor) *tensor.Tensor {
	p.iout = tensor.EnsureShape(p.iout, x.Shape[0], p.LocalChannels(), p.Tokens(), p.Embed)
	return p.tokenize(p.iout, x, true)
}

// tokenize writes local channel c's tokens of sample b, patches@W_c + b_c,
// into out[b, c] [T, E]: one product per channel and sample, the bias added
// as the kernel stores each row. A D-CHAG stage never tokenizes, it folds
// the projection into its first level (Patches, AccumPatches).
//
// dchag:hotpath — the reference tokenizer; every buffer is layer-owned.
func (p *PatchEmbed) tokenize(out, x *tensor.Tensor, infer bool) *tensor.Tensor {
	col := p.Patches(x, nil, infer)
	b, localC, t, e, pp := x.Shape[0], p.LocalChannels(), p.Tokens(), p.Embed, p.Patch*p.Patch
	p.sv.Shape = append(p.sv.Shape[:0], t, pp)
	for c := 0; c < localC; c++ {
		ep := tensor.Epilogue{Bias: p.Bias.W.Data[c*e:][:e]}
		for bi := 0; bi < b; bi++ {
			p.sv.Data = col.Data[(c*b+bi)*t*pp:][:t*pp]
			dst := out.Data[(bi*localC+c)*t*e:][:t*e]
			if infer && p.inferDType == tensor.F32 && p.pb32 != nil {
				tensor.AffinePackedF32Into(dst, e, &p.sv, p.pb32[c], ep)
			} else {
				tensor.AffineInto(dst, e, &p.sv, p.channelView(&p.wv, p.Weight.W, c), false, ep)
			}
		}
	}
	return out
}

// Patches is the tokenizer's gather alone: it writes every local channel's
// im2col matrix of x [B, localC, H, W] — row r the P*P pixels of the
// patch at location r, or at locs[r] (b·T + t, ascending) when locs is
// non-nil — into [localC, rows, P*P] and returns it, layer-owned. A stage
// that folds the projection into what follows (core's first levels) takes
// it from here, and forms the parameter gradients from it itself; Forward
// and Infer project it. Without infer the matrices are the pass's cache: it
// records the pass for AccumPatches, and over every location for Backward,
// and the returned tensor stays unmodified until the next training pass.
// With infer it is scratch, and a pending backward's cache is left alone.
//
// dchag:hotpath — once per stage pass; the matrices are layer-owned.
func (p *PatchEmbed) Patches(x *tensor.Tensor, locs []int, infer bool) *tensor.Tensor {
	localC := p.LocalChannels()
	p.mustTake("Patches", x)
	rows := x.Shape[0] * p.Tokens()
	if locs != nil {
		p.mustList(locs, rows)
		rows = len(locs)
	}
	var col *tensor.Tensor
	var offs []int
	if infer {
		p.icol = tensor.EnsureShape(p.icol, localC, rows, p.Patch*p.Patch)
		col = p.icol
		p.ioffs = p.patchOffsets(p.ioffs, x.Shape[0], locs)
		offs = p.ioffs
	} else {
		p.b, p.locs = x.Shape[0], locs
		p.offs = p.patchOffsets(p.offs, x.Shape[0], locs)
		offs = p.offs
		p.col = tensor.EnsureShape(p.col, localC, rows, p.Patch*p.Patch)
		col = p.col
	}
	for c := 0; c < localC; c++ {
		p.im2col(p.channelCols(col, c), x, c, offs)
	}
	return col
}

// channelCols points the layer-owned header cv at local channel c's
// [rows, P*P] matrix of col [localC, rows, P*P].
func (p *PatchEmbed) channelCols(col *tensor.Tensor, c int) *tensor.Tensor {
	rows, pp := col.Shape[1], col.Shape[2]
	p.cv.Data = col.Data[c*rows*pp : (c+1)*rows*pp]
	p.cv.Shape = append(p.cv.Shape[:0], rows, pp)
	return &p.cv
}

// mustList checks that locs lists locations of a batch of n, ascending.
func (p *PatchEmbed) mustList(locs []int, n int) {
	prev := -1
	for _, l := range locs {
		if l <= prev || l >= n {
			panic(fmt.Sprintf("nn: PatchEmbed locations must ascend within [0,%d), got %d after %d", n, l, prev))
		}
		prev = l
	}
}

// InferAccum is the no-grad tokenizer of a linear channel aggregation: it
// adds w times each of local channel c's B·T tokens of x [B, localC, H, W] —
// (patches@W_c + b_c) + ids.Table[c] — to out's row b·T + t, rows ldo
// apart, without writing a token anywhere (tensor.PatchAccumInto, or
// PatchAccumPackedF32Into against the prepacked weights when SetInferDType
// selected F32). The values are Infer's tokens plus the channel's ID row,
// as an aggregator's weighted sum adds them, bit for bit. It needs
// Patch² <= tensor.PatchAccumMaxDepth.
//
// dchag:hotpath — once per channel of the no-grad linear stage.
func (p *PatchEmbed) InferAccum(x *tensor.Tensor, c int, ids *ChannelEmbed, w float64, out []float64, ldo int) {
	p.mustTake("InferAccum", x)
	p.mustShare(ids)
	bias, id := p.Bias.W.Data[c*p.Embed:][:p.Embed], ids.row(c)
	if p.inferDType == tensor.F32 && p.pb32 != nil {
		tensor.PatchAccumPackedF32Into(out, ldo, x, c, p.Patch, p.pb32[c], bias, id, w)
		return
	}
	tensor.PatchAccumInto(out, ldo, x, c, p.Patch, p.channelView(&p.wv, p.Weight.W, c), bias, id, w)
}

// AccumPatches is InferAccum for a training pass: it adds w times each of
// local channel c's tokens at the last training pass's rows — formed from
// the patches Patches cached, row r to out's row r, rows ldo apart — in
// float64 whatever SetInferDType selected, without writing a token. Each
// token has the bits Forward and InferAccum give it: channel c's cached
// matrix [rows, P*P], read as an image P pixels wide and rows*P tall, has
// the patch of row r as its r-th patch.
//
// dchag:hotpath — once per channel of a linear stage's training pass.
func (p *PatchEmbed) AccumPatches(c int, ids *ChannelEmbed, w float64, out []float64, ldo int) {
	if p.col == nil {
		panic("nn: PatchEmbed.AccumPatches before a training pass")
	}
	p.mustShare(ids)
	rows, pp := p.col.Shape[1], p.Patch*p.Patch
	p.pv.Data = p.col.Data[c*rows*pp : (c+1)*rows*pp]
	p.pv.Shape = append(p.pv.Shape[:0], 1, 1, rows*p.Patch, p.Patch)
	tensor.PatchAccumInto(out, ldo, &p.pv, 0, p.Patch, p.channelView(&p.wv, p.Weight.W, c), p.Bias.W.Data[c*p.Embed:][:p.Embed], ids.row(c), w)
}

// mustTake checks that x is a batch of this shard's images [B, localC, H, W].
func (p *PatchEmbed) mustTake(op string, x *tensor.Tensor) {
	if len(x.Shape) != 4 || x.Shape[1] != p.LocalChannels() || x.Shape[2] != p.ImgH || x.Shape[3] != p.ImgW {
		panic(fmt.Sprintf("nn: PatchEmbed.%s want [B,%d,%d,%d], got %v", op, p.LocalChannels(), p.ImgH, p.ImgW, x.Shape))
	}
}

// mustShare checks that ids covers this shard's channels.
func (p *PatchEmbed) mustShare(ids *ChannelEmbed) {
	if ids.ChLo != p.ChLo || ids.ChHi != p.ChHi || ids.Embed != p.Embed {
		panic(fmt.Sprintf("nn: PatchEmbed over channels [%d,%d) needs channel IDs over the same shard", p.ChLo, p.ChHi))
	}
}

// Backward consumes dOut of shape [B, localC, T, E] for the last training
// pass, which must have run over every location, accumulates weight and
// bias gradients, and returns the gradient with respect to the input image
// shard [B, localC, H, W].
func (p *PatchEmbed) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.col == nil {
		panic("nn: PatchEmbed.Backward before a training pass")
	}
	if p.locs != nil {
		panic("nn: PatchEmbed.Backward after a pass over listed locations")
	}
	localC, t, e := p.LocalChannels(), p.Tokens(), p.Embed
	if len(grad.Shape) != 4 || grad.Shape[0] != p.b || grad.Shape[1] != localC || grad.Shape[2] != t || grad.Shape[3] != e {
		panic(fmt.Sprintf("nn: PatchEmbed.Backward want [%d,%d,%d,%d], got %v", p.b, localC, t, e, grad.Shape))
	}
	rows := len(p.offs)
	p.dimg = tensor.EnsureShape(p.dimg, p.b, localC, p.ImgH, p.ImgW)
	p.dy = tensor.EnsureShape(p.dy, rows, e)
	p.dcol = tensor.EnsureShape(p.dcol, rows, p.Patch*p.Patch)
	for c := 0; c < localC; c++ {
		// Gather dY_c [rows, E], then sum its columns into the bias gradient.
		for bi := 0; bi < p.b; bi++ {
			copy(p.dy.Data[bi*t*e:][:t*e], grad.Data[(bi*localC+c)*t*e:][:t*e])
		}
		tensor.AccumRows(p.Bias.Grad.Data[c*e:][:e], p.dy.Data, e, rows, nil)
		// dW_c += col^T @ dY, accumulated straight into the gradient slice.
		tensor.TMatMulAccInto(p.channelView(&p.gv, p.Weight.Grad, c), p.channelCols(p.col, c), p.dy, nil)
		// dCol = dY @ W_c^T, then col2im back onto the image gradient.
		tensor.MatMulTInto(p.dcol, p.dy, p.channelView(&p.wv, p.Weight.W, c)) // [rows, P*P]
		p.col2im(p.dcol.Data, p.dimg, c, p.offs)
	}
	return p.dimg
}

// patchOffsets writes into dst[:0] and returns, for each row of a pass
// over a batch of b, where its patch starts in local channel 0 of a
// [B, localC, H, W] image: the patch of location r, or of locs[r] when locs
// is non-nil. Channel c's patch starts c·H·W further.
func (p *PatchEmbed) patchOffsets(dst []int, b int, locs []int) []int {
	t, pw := p.Tokens(), p.ImgW/p.Patch
	n := b * t
	if locs != nil {
		n = len(locs)
	}
	dst = dst[:0]
	for r := 0; r < n; r++ {
		l := r
		if locs != nil {
			l = locs[r]
		}
		bi, py, px := l/t, l%t/pw, l%pw
		dst = append(dst, (bi*p.LocalChannels()*p.ImgH+py*p.Patch)*p.ImgW+px*p.Patch)
	}
	return dst
}

// im2col extracts local channel c's patch matrix into col: row r holds the
// P*P pixels of the patch at offs[r]. A patch row is P values, 2 or 4 in
// the workloads: an element loop moves them where copy would call memmove
// for each.
//
// dchag:hotpath — per-channel patch gather; col is layer-owned scratch.
func (p *PatchEmbed) im2col(col, x *tensor.Tensor, c int, offs []int) {
	pp := p.Patch * p.Patch
	for r, o := range offs {
		off := o + c*p.ImgH*p.ImgW
		dst := col.Data[r*pp : (r+1)*pp]
		for dy := 0; dy < p.Patch; dy++ {
			row := dst[dy*p.Patch:][:p.Patch]
			for i, v := range x.Data[off+dy*p.ImgW:][:len(row)] {
				row[i] = v
			}
		}
	}
}

// col2im scatters a patch-gradient matrix, rows as im2col's, back into the
// image gradient for local channel c, row by row as im2col gathers. Patches
// do not overlap, so this is a pure scatter.
func (p *PatchEmbed) col2im(dcol []float64, dimg *tensor.Tensor, c int, offs []int) {
	pp := p.Patch * p.Patch
	for r, o := range offs {
		off := o + c*p.ImgH*p.ImgW
		src := dcol[r*pp : (r+1)*pp]
		for dy := 0; dy < p.Patch; dy++ {
			row := dimg.Data[off+dy*p.ImgW:][:p.Patch]
			for i, v := range src[dy*p.Patch:][:len(row)] {
				row[i] = v
			}
		}
	}
}

// Params returns the tokenizer's parameters.
func (p *PatchEmbed) Params() []*Param { return []*Param{p.Weight, p.Bias} }
