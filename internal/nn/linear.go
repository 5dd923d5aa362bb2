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
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	mustLastDim("Linear.Forward", x, l.In)
	l.x = foldInto(l.x, x)
	l.y = tensor.EnsureShape(l.y, l.x.Shape[0], l.Out)
	l.affine(l.y, l.x)
	return unfoldLike(l.y, x, l.Out)
}

// Infer computes Forward's output without caching the input for backward.
// Under SetInferDType(F32) the matrix product runs in float32 against the
// prepacked weights (bias addition stays float64); the output then differs
// from Forward by float32 round-off — see the tolerance contract in
// DESIGN.md.
func (l *Linear) Infer(x *tensor.Tensor) *tensor.Tensor {
	mustLastDim("Linear.Infer", x, l.In)
	l.xi = foldInto(l.xi, x)
	l.yi = tensor.EnsureShape(l.yi, l.xi.Shape[0], l.Out)
	l.inferAffine(l.yi, l.xi)
	return unfoldLike(l.yi, x, l.Out)
}

// affine computes dst = x2@W + b on the folded input.
//
// dchag:hotpath — every projection in the model funnels through here; dst is
// layer-owned scratch and the kernels are destination-passing.
func (l *Linear) affine(dst, x2 *tensor.Tensor) {
	tensor.MatMulInto(dst, x2, l.Weight.W)
	l.addBias(dst)
}

// inferAffine is affine on the no-grad path, dispatching on the inference
// dtype.
//
// dchag:hotpath — the serve dispatch loop runs this once per projection per
// micro-batch.
func (l *Linear) inferAffine(dst, x2 *tensor.Tensor) {
	if l.inferDType == tensor.F32 && l.pb32 != nil {
		tensor.MatMulPackedF32Into(dst, x2, l.pb32)
	} else {
		tensor.MatMulInto(dst, x2, l.Weight.W)
	}
	l.addBias(dst)
}

// addBias adds the bias row-wise to y [rows, Out].
//
// dchag:hotpath — inner loop of the affine layer.
func (l *Linear) addBias(y *tensor.Tensor) {
	if l.Bias == nil {
		return
	}
	n := y.Shape[0]
	for i := 0; i < n; i++ {
		row := y.Data[i*l.Out : (i+1)*l.Out]
		for j, bv := range l.Bias.W.Data {
			row[j] += bv
		}
	}
}

// Backward accumulates dW = x^T@dy and db = sum(dy), returning dx = dy@W^T
// reshaped to the forward input's shape.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	mustLastDim("Linear.Backward", grad, l.Out)
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	l.g = foldInto(l.g, grad)
	l.dx = tensor.EnsureShape(l.dx, l.g.Shape[0], l.In)
	l.backward(l.dx, l.g)
	return unfoldLike(l.dx, grad, l.In)
}

// backward accumulates the parameter gradients and writes dx = g2@W^T.
//
// dchag:hotpath — per-step gradient kernels; dW accumulates directly into
// Weight.Grad with no intermediate product tensor.
func (l *Linear) backward(dx, g2 *tensor.Tensor) {
	tensor.TMatMulAccInto(l.Weight.Grad, l.x, g2)
	if l.Bias != nil {
		rows := g2.Shape[0]
		bg := l.Bias.Grad.Data
		for r := 0; r < rows; r++ {
			row := g2.Data[r*l.Out : (r+1)*l.Out]
			for j, v := range row {
				bg[j] += v
			}
		}
	}
	tensor.MatMulTInto(dx, g2, l.Weight.W)
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}
