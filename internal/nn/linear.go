package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Linear is an affine layer y = x@W + b operating on the last dimension of
// its input. Leading dimensions are treated as batch.
//
// The layer owns its output and input-gradient scratch: Forward, Infer and
// Backward return layer-owned buffers that stay valid until the same method
// is called again (the single-stream contract in the package doc). Steady
// state, none of the three allocates.
type Linear struct {
	In, Out int
	Weight  *Param // [In, Out]
	Bias    *Param // [Out], nil when the layer is bias-free

	x  *tensor.Tensor // Forward's input folded to [rows, In] (a header over its data)
	g  *tensor.Tensor // Backward's gradient folded to [rows, Out], likewise
	y  *tensor.Tensor // Forward output scratch
	xi *tensor.Tensor // Infer's folded input header
	yi *tensor.Tensor // Infer output scratch (kept separate from y so an
	// eval pass never clobbers activations a pending Backward still reads)
	dx *tensor.Tensor // Backward input-gradient scratch

	inferDType tensor.DType
	pb32       *tensor.PackedB32 // prepacked f32 weights when inferDType == F32
}

// NewLinear constructs a Linear layer with Xavier-uniform weights drawn
// deterministically from seed and a zero bias.
func NewLinear(name string, in, out int, seed int64) *Linear {
	rng := tensor.NewRNG(seed)
	return &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".weight", tensor.XavierUniform(rng, in, out)),
		Bias:   NewParam(name+".bias", tensor.New(out)),
	}
}

// NewLinearFrom wraps explicit weight (and optional bias) tensors; used by
// tensor-parallel shards that slice a master weight.
func NewLinearFrom(name string, w, b *tensor.Tensor) *Linear {
	if len(w.Shape) != 2 {
		panic(fmt.Sprintf("nn: linear weight must be rank 2, got %v", w.Shape))
	}
	l := &Linear{In: w.Shape[0], Out: w.Shape[1], Weight: NewParam(name+".weight", w)}
	if b != nil {
		if len(b.Shape) != 1 || b.Shape[0] != l.Out {
			panic(fmt.Sprintf("nn: linear bias shape %v does not match out %d", b.Shape, l.Out))
		}
		l.Bias = NewParam(name+".bias", b)
	}
	return l
}

// SetInferDType selects the arithmetic of the no-grad Infer path. F32
// prepacks the weights for the float32 kernels; the pack snapshots Weight.W,
// so call SetInferDType again after mutating the weights (e.g. after an
// optimizer step or a checkpoint load). Forward and Backward always run
// float64.
func (l *Linear) SetInferDType(dt tensor.DType) {
	l.inferDType = dt
	if dt == tensor.F32 {
		l.pb32 = tensor.PackB32(l.Weight.W)
	} else {
		l.pb32 = nil
	}
}

// Forward computes x@W + b. The input's last dimension must equal In.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor { return l.forward(x, nil) }

// forward is Forward with res (x's leading shape, Out columns) added when
// non-nil: a block's residual sum, formed as the product stores its tiles.
//
// dchag:hotpath — every projection in the model funnels through here; y is
// layer-owned scratch and the bias rides the product's store.
func (l *Linear) forward(x, res *tensor.Tensor) *tensor.Tensor {
	mustLastDim("Linear.Forward", x, l.In)
	l.x = foldInto(l.x, x)
	l.y = tensor.EnsureShape(l.y, l.x.Shape[0], l.Out)
	tensor.AffineInto(l.y.Data, l.Out, l.x, l.Weight.W, false, l.epilogue(res, l.y))
	return unfoldLike(l.y, x, l.Out)
}

// Infer computes Forward's output without caching the input for backward.
// Under SetInferDType(F32) the matrix product runs in float32 against the
// prepacked weights (bias addition stays float64); the output then differs
// from Forward by float32 round-off — see the tolerance contract in
// DESIGN.md.
func (l *Linear) Infer(x *tensor.Tensor) *tensor.Tensor { return l.infer(x, nil) }

// infer is Infer with res added when non-nil, as forward.
//
// dchag:hotpath — the serve dispatch loop runs this once per projection per
// micro-batch.
func (l *Linear) infer(x, res *tensor.Tensor) *tensor.Tensor {
	mustLastDim("Linear.Infer", x, l.In)
	l.xi = foldInto(l.xi, x)
	l.yi = tensor.EnsureShape(l.yi, l.xi.Shape[0], l.Out)
	if ep := l.epilogue(res, l.yi); l.inferDType == tensor.F32 && l.pb32 != nil {
		tensor.AffinePackedF32Into(l.yi.Data, l.Out, l.xi, l.pb32, ep)
	} else {
		tensor.AffineInto(l.yi.Data, l.Out, l.xi, l.Weight.W, false, ep)
	}
	return unfoldLike(l.yi, x, l.Out)
}

// epilogue is what the forward product adds as it stores y [rows, Out]: the
// bias, then res when non-nil.
func (l *Linear) epilogue(res, y *tensor.Tensor) tensor.Epilogue {
	ep := summand("Linear residual", res, y)
	if l.Bias != nil {
		ep.Bias = l.Bias.W.Data
	}
	return ep
}

// summand is the epilogue that adds s, which holds as many rows of dst's
// width as dst [rows, width], as the product storing dst stores; a nil s
// adds nothing.
func summand(op string, s, dst *tensor.Tensor) tensor.Epilogue {
	if s == nil {
		return tensor.Epilogue{}
	}
	width := dst.Shape[1]
	mustLastDim(op, s, width)
	if len(s.Data) != len(dst.Data) {
		panic(fmt.Sprintf("nn: %s %v does not match %d rows of %d", op, s.Shape, dst.Shape[0], width))
	}
	return tensor.Epilogue{Res: s.Data, ResLd: width}
}

// Backward accumulates dW = x^T@dy and db = sum(dy), returning dx = dy@W^T
// reshaped to the forward input's shape.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dx = l.BackwardTo(l.dx, grad, nil)
	return l.dx
}

// BackwardTo is Backward writing dy@W^T + acc into dx, grown to the forward
// input's rows, instead of the layer's own scratch: acc (the forward input's
// shape) is another gradient with respect to the same input, the sum formed
// as the product stores its tiles, (acc + dy@W^T) rounded once; a nil acc
// adds nothing. The blocks' and the pooled cross-attention's backwards take
// dx from the workspace they borrow. dx must alias neither grad nor acc.
//
// dchag:hotpath — per-step gradient kernels; dW accumulates directly into
// Weight.Grad with no intermediate product tensor.
func (l *Linear) BackwardTo(dx, grad, acc *tensor.Tensor) *tensor.Tensor {
	return l.backwardTo(dx, grad, acc, nil)
}

// backwardTo is BackwardTo summing dW's rows in the pieces ends gives
// (tensor.TMatMulAccInto); nil ends is one product.
func (l *Linear) backwardTo(dx, grad, acc *tensor.Tensor, ends []int) *tensor.Tensor {
	l.accumGrads(grad, ends)
	dx = tensor.EnsureShape(dx, l.g.Shape[0], l.In)
	tensor.AffineInto(dx.Data, l.In, l.g, l.Weight.W, true, summand("Linear.BackwardTo gradient", acc, dx))
	return unfoldLike(dx, grad, l.In)
}

// accumGrads accumulates the parameter gradients of grad, the output
// gradient: dW += x^T@grad, summed in the pieces ends gives, and
// db += sum(grad). It leaves grad's rows in l.g.
func (l *Linear) accumGrads(grad *tensor.Tensor, ends []int) {
	mustLastDim("Linear.Backward", grad, l.Out)
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	l.g = foldInto(l.g, grad)
	tensor.TMatMulAccInto(l.Weight.Grad, l.x, l.g, ends)
	if l.Bias != nil {
		tensor.AccumRows(l.Bias.Grad.Data, l.g.Data, l.Out, l.g.Shape[0], nil)
	}
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}
