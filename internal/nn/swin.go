package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// SwinBlock is a windowed-attention transformer block in the style of the
// Swin Transformer, which the paper's Sec. 3.5 names as the ViT replacement
// in Aurora ("the Swin Transformer applies a hierarchical approach to
// self-attention, enabling it to handle longer sequence-length tokens").
// D-CHAG is agnostic to the ViT architecture, so swapping these blocks in
// for TransformerBlock changes nothing about the channel stage — which the
// model tests assert.
//
// Tokens are interpreted as a GridH x GridW spatial grid and partitioned
// into non-overlapping Window x Window windows; self-attention runs within
// each window. Blocks with Shift set cyclically shift the grid by half a
// window first (and unshift after), so stacked alternating blocks connect
// neighboring windows. Like the original, shifted windows wrap around the
// grid; the boundary attention mask of the original is omitted — a
// documented simplification appropriate for the periodic scientific fields
// this repository trains on.
type SwinBlock struct {
	Embed, Heads int
	GridH, GridW int
	Window       int
	Shift        bool
	Norm1, Norm2 *LayerNorm
	Attn         *SelfAttention
	FFN          *MLP

	// Grads is the workspace Backward writes every buffer into, as
	// TransformerBlock.Grads.
	Grads *BlockGrads

	b int

	// Per-pass data-movement scratch. Forward and Infer each own a set, and
	// Backward's is its workspace's: the attention sublayer caches views of
	// the partitioned windows for its backward pass, so Backward's (and
	// Infer's) data movement must not reuse Forward's buffers.
	fsc, isc swinScratch
	h, out   *tensor.Tensor // residual scratch (forward)
	ih, iout *tensor.Tensor // residual scratch (infer)
}

// swinScratch holds the shift/partition buffers of one pass direction.
type swinScratch struct {
	shifted *tensor.Tensor // cyclically shifted grid
	part    *tensor.Tensor // windows, [B*numWindows, Window*Window, E]
	merged  *tensor.Tensor // unpartitioned grid
	unshift *tensor.Tensor // unshifted grid
}

// NewSwinBlock constructs a windowed block. The grid must tile exactly into
// Window x Window patches.
func NewSwinBlock(name string, embed, heads, gridH, gridW, window int, shift bool, seed int64) *SwinBlock {
	if gridH%window != 0 || gridW%window != 0 {
		panic(fmt.Sprintf("nn: grid %dx%d not divisible by window %d", gridH, gridW, window))
	}
	return &SwinBlock{
		Embed: embed, Heads: heads,
		GridH: gridH, GridW: gridW, Window: window, Shift: shift,
		Norm1: NewLayerNorm(name+".norm1", embed),
		Norm2: NewLayerNorm(name+".norm2", embed),
		Attn:  NewSelfAttention(name+".attn", embed, heads, SubSeed(seed, 0)),
		FFN:   NewMLP(name+".mlp", embed, 4*embed, SubSeed(seed, 1)),
		Grads: new(BlockGrads),
	}
}

// Tokens returns the sequence length the block expects.
func (s *SwinBlock) Tokens() int { return s.GridH * s.GridW }

// SetInferDType selects the arithmetic of the no-grad Infer path for the
// attention and MLP sublayers; the layer norms always run float64.
func (s *SwinBlock) SetInferDType(dt tensor.DType) {
	s.Attn.SetInferDType(dt)
	s.FFN.SetInferDType(dt)
}

// shiftGrid cyclically shifts the token grid by (dy, dx), writing into out.
//
// dchag:hotpath — per-block data movement; out is pass-owned scratch.
func (s *SwinBlock) shiftGrid(out, x *tensor.Tensor, dy, dx int) *tensor.Tensor {
	b, e := x.Shape[0], s.Embed
	for bi := 0; bi < b; bi++ {
		for y := 0; y < s.GridH; y++ {
			for xx := 0; xx < s.GridW; xx++ {
				sy := ((y+dy)%s.GridH + s.GridH) % s.GridH
				sx := ((xx+dx)%s.GridW + s.GridW) % s.GridW
				src := x.Data[(bi*s.Tokens()+sy*s.GridW+sx)*e : (bi*s.Tokens()+sy*s.GridW+sx+1)*e]
				dst := out.Data[(bi*s.Tokens()+y*s.GridW+xx)*e : (bi*s.Tokens()+y*s.GridW+xx+1)*e]
				copy(dst, src)
			}
		}
	}
	return out
}

// partition rearranges [B, T, E] into [B*numWindows, Window*Window, E],
// writing into out.
//
// dchag:hotpath — per-block data movement; out is pass-owned scratch.
func (s *SwinBlock) partition(out, x *tensor.Tensor) *tensor.Tensor {
	b, e := x.Shape[0], s.Embed
	wh, ww := s.GridH/s.Window, s.GridW/s.Window
	for bi := 0; bi < b; bi++ {
		for wy := 0; wy < wh; wy++ {
			for wx := 0; wx < ww; wx++ {
				win := (bi*wh+wy)*ww + wx
				for iy := 0; iy < s.Window; iy++ {
					for ix := 0; ix < s.Window; ix++ {
						tok := (wy*s.Window+iy)*s.GridW + wx*s.Window + ix
						src := x.Data[(bi*s.Tokens()+tok)*e : (bi*s.Tokens()+tok+1)*e]
						dst := out.Data[(win*s.Window*s.Window+iy*s.Window+ix)*e : (win*s.Window*s.Window+iy*s.Window+ix+1)*e]
						copy(dst, src)
					}
				}
			}
		}
	}
	return out
}

// unpartition inverts partition, writing into out.
//
// dchag:hotpath — per-block data movement; out is pass-owned scratch.
func (s *SwinBlock) unpartition(out, x *tensor.Tensor, b int) *tensor.Tensor {
	e := s.Embed
	wh, ww := s.GridH/s.Window, s.GridW/s.Window
	for bi := 0; bi < b; bi++ {
		for wy := 0; wy < wh; wy++ {
			for wx := 0; wx < ww; wx++ {
				win := (bi*wh+wy)*ww + wx
				for iy := 0; iy < s.Window; iy++ {
					for ix := 0; ix < s.Window; ix++ {
						tok := (wy*s.Window+iy)*s.GridW + wx*s.Window + ix
						src := x.Data[(win*s.Window*s.Window+iy*s.Window+ix)*e : (win*s.Window*s.Window+iy*s.Window+ix+1)*e]
						dst := out.Data[(bi*s.Tokens()+tok)*e : (bi*s.Tokens()+tok+1)*e]
						copy(dst, src)
					}
				}
			}
		}
	}
	return out
}

// Attention pass directions for windowed.
const (
	swinForward = iota
	swinInfer
	swinBackward
)

// windowed runs the shift -> partition -> attention -> unpartition ->
// unshift data movement in the given direction, using the pass's scratch
// set sc; the backward's attention writes in ws, nil otherwise.
//
// dchag:hotpath — one call per block per step/micro-batch.
func (s *SwinBlock) windowed(x *tensor.Tensor, sc *swinScratch, mode int, ws *BlockGrads) *tensor.Tensor {
	b := x.Shape[0]
	half := s.Window / 2
	if s.Shift {
		sc.shifted = tensor.EnsureShape(sc.shifted, x.Shape...)
		x = s.shiftGrid(sc.shifted, x, half, half)
	}
	wh, ww := s.GridH/s.Window, s.GridW/s.Window
	sc.part = tensor.EnsureShape(sc.part, b*wh*ww, s.Window*s.Window, s.Embed)
	s.partition(sc.part, x)
	var y *tensor.Tensor
	switch mode {
	case swinForward:
		y = s.Attn.Forward(sc.part)
	case swinInfer:
		y = s.Attn.Infer(sc.part)
	default:
		y = s.Attn.BackwardIn(sc.part, ws)
	}
	sc.merged = tensor.EnsureShape(sc.merged, b, s.Tokens(), s.Embed)
	y = s.unpartition(sc.merged, y, b)
	if s.Shift {
		sc.unshift = tensor.EnsureShape(sc.unshift, y.Shape...)
		y = s.shiftGrid(sc.unshift, y, -half, -half)
	}
	return y
}

// windowAttention applies self-attention within windows (with optional
// shift) to normed input [B, T, E].
func (s *SwinBlock) windowAttention(x *tensor.Tensor) *tensor.Tensor {
	return s.windowed(x, &s.fsc, swinForward, nil)
}

// windowAttentionInfer is windowAttention through the attention layer's
// no-grad fast path.
func (s *SwinBlock) windowAttentionInfer(x *tensor.Tensor) *tensor.Tensor {
	return s.windowed(x, &s.isc, swinInfer, nil)
}

// swinAttention is a Swin block's attention branch: BackwardIn inverts
// windowAttention's data movement around the attention backward, both in
// the workspace.
type swinAttention SwinBlock

// BackwardIn back-propagates the windowed attention in ws.
func (a *swinAttention) BackwardIn(grad *tensor.Tensor, ws *BlockGrads) *tensor.Tensor {
	return (*SwinBlock)(a).windowed(grad, &ws.swin, swinBackward, ws)
}

// Forward applies the block to x [B, T, E] with T = GridH*GridW.
func (s *SwinBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != s.Tokens() || x.Shape[2] != s.Embed {
		panic(fmt.Sprintf("nn: SwinBlock.Forward want [B,%d,%d], got %v", s.Tokens(), s.Embed, x.Shape))
	}
	s.b = x.Shape[0]
	s.h = tensor.EnsureShape(s.h, x.Shape...)
	tensor.AddInto(s.h, x, s.windowAttention(s.Norm1.Forward(x)))
	s.out = tensor.EnsureShape(s.out, x.Shape...)
	return tensor.AddInto(s.out, s.h, s.FFN.Forward(s.Norm2.Forward(s.h)))
}

// Infer applies the block through the sublayers' no-grad fast paths.
func (s *SwinBlock) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != s.Tokens() || x.Shape[2] != s.Embed {
		panic(fmt.Sprintf("nn: SwinBlock.Infer want [B,%d,%d], got %v", s.Tokens(), s.Embed, x.Shape))
	}
	s.ih = tensor.EnsureShape(s.ih, x.Shape...)
	tensor.AddInto(s.ih, x, s.windowAttentionInfer(s.Norm1.Infer(x)))
	s.iout = tensor.EnsureShape(s.iout, x.Shape...)
	return tensor.AddInto(s.iout, s.ih, s.FFN.Infer(s.Norm2.Infer(s.ih)))
}

// Backward back-propagates through both residual branches in s.Grads.
func (s *SwinBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return s.Grads.BackwardBlock(grad, s.Norm1, s.Norm2, (*swinAttention)(s), s.FFN)
}

// Params returns the block's parameters.
func (s *SwinBlock) Params() []*Param {
	var ps []*Param
	ps = append(ps, s.Norm1.Params()...)
	ps = append(ps, s.Attn.Params()...)
	ps = append(ps, s.Norm2.Params()...)
	ps = append(ps, s.FFN.Params()...)
	return ps
}
