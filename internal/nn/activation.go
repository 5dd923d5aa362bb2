package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// GELU applies the Gaussian Error Linear Unit in the tanh approximation used
// by most transformer implementations, 0.5*x*(1 + tanh u) with
// u = sqrt(2/pi)*(x + 0.044715*x^3). It is evaluated through the identity
// 0.5*(1 + tanh u) = sigmoid(2u), as x / (1 + e^(-2u)), one tensor.GELU pass
// forward and one tensor.GELUBackward pass backward, each with its
// exponential inside.
type GELU struct {
	x *tensor.Tensor

	out  *tensor.Tensor // Forward output scratch
	iout *tensor.Tensor // Infer output scratch
	dx   *tensor.Tensor // Backward scratch
}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

// Forward applies GELU elementwise.
//
// dchag:hotpath — elementwise activation inside every MLP, every step.
func (g *GELU) Forward(x *tensor.Tensor) *tensor.Tensor {
	g.x = x
	g.out = tensor.EnsureShape(g.out, x.Shape...)
	tensor.GELU(g.out.Data, x.Data[:len(g.out.Data)])
	return g.out
}

// Infer applies GELU without caching the input for backward; it calls the
// routine Forward calls, so the two agree bit for bit.
//
// dchag:hotpath — the serve dispatch loop runs this once per MLP per
// micro-batch.
func (g *GELU) Infer(x *tensor.Tensor) *tensor.Tensor {
	g.iout = tensor.EnsureShape(g.iout, x.Shape...)
	tensor.GELU(g.iout.Data, x.Data[:len(g.iout.Data)])
	return g.iout
}

// Backward multiplies the upstream gradient by GELU'(x) =
// s + 2*x*s*(1-s)*u'(x) with s = sigmoid(2u) (tensor.GELUBackward).
func (g *GELU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g.dx = g.backwardTo(g.dx, grad)
	return g.dx
}

// backwardTo is Backward writing into dx, grown to grad's shape, instead of
// the layer's own scratch; dx may be grad itself, which an MLP in a block
// workspace overwrites in place.
//
// dchag:hotpath — elementwise activation gradient, every step.
func (g *GELU) backwardTo(dx, grad *tensor.Tensor) *tensor.Tensor {
	if g.x == nil {
		panic("nn: GELU.Backward before Forward")
	}
	if !tensor.SameShape(grad, g.x) {
		panic(fmt.Sprintf("nn: GELU.Backward gradient shape %v does not match input %v", grad.Shape, g.x.Shape))
	}
	dx = tensor.EnsureShape(dx, grad.Shape...)
	n := len(dx.Data)
	tensor.GELUBackward(dx.Data, g.x.Data[:n], grad.Data[:n])
	return dx
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }
