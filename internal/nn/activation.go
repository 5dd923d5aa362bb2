package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// GELU applies the Gaussian Error Linear Unit in the tanh approximation used
// by most transformer implementations, 0.5*x*(1 + tanh u) with
// u = sqrt(2/pi)*(x + 0.044715*x^3). It is evaluated through the identity
// 0.5*(1 + tanh u) = sigmoid(2u), as x / (1 + e^(-2u)), so the only
// transcendental is one tensor.Exp pass over the layer's own buffer.
type GELU struct {
	x *tensor.Tensor

	out  *tensor.Tensor // Forward output scratch
	iout *tensor.Tensor // Infer output scratch
	dx   *tensor.Tensor // Backward scratch
}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

const (
	geluC = 0.7978845608028654 // sqrt(2/pi)
	geluA = 0.044715
)

// geluExp sets e[i] = e^(-2u(x[i])), with the exponent held at 709 so that e
// stays finite and the products the callers form with it cannot be Inf*0.
//
// dchag:hotpath — the one transcendental pass of GELU, forward and backward.
func geluExp(e, x []float64) {
	for i, v := range x {
		a := v * (-2*geluC - 2*geluC*geluA*v*v)
		if a > 709 {
			a = 709
		}
		e[i] = a
	}
	tensor.Exp(e, e)
}

// geluInto computes dst = GELU(x) for a dst shaped like x; Forward and Infer
// share it, so they agree bit for bit.
//
// dchag:hotpath — elementwise activation inside every MLP.
func geluInto(dst, x *tensor.Tensor) *tensor.Tensor {
	d, xs := dst.Data, x.Data[:len(dst.Data)]
	geluExp(d, xs)
	for i, e := range d {
		d[i] = xs[i] / (1 + e)
	}
	return dst
}

// Forward applies GELU elementwise.
//
// dchag:hotpath — elementwise activation inside every MLP, every step.
func (g *GELU) Forward(x *tensor.Tensor) *tensor.Tensor {
	g.x = x
	g.out = tensor.EnsureShape(g.out, x.Shape...)
	return geluInto(g.out, x)
}

// Infer applies GELU without caching the input for backward.
//
// dchag:hotpath — the serve dispatch loop runs this once per MLP per
// micro-batch.
func (g *GELU) Infer(x *tensor.Tensor) *tensor.Tensor {
	g.iout = tensor.EnsureShape(g.iout, x.Shape...)
	return geluInto(g.iout, x)
}

// Backward multiplies the upstream gradient by GELU'(x) =
// s + 2*x*s*(1-s)*u'(x) with s = sigmoid(2u) = 1/(1+e); 1-s is taken as s*e,
// which has no cancellation where s is near 1.
//
// dchag:hotpath — elementwise activation gradient, every step.
func (g *GELU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.x == nil {
		panic("nn: GELU.Backward before Forward")
	}
	if !tensor.SameShape(grad, g.x) {
		panic(fmt.Sprintf("nn: GELU.Backward gradient shape %v does not match input %v", grad.Shape, g.x.Shape))
	}
	g.dx = tensor.EnsureShape(g.dx, grad.Shape...)
	d, xs, gs := g.dx.Data, g.x.Data[:len(g.dx.Data)], grad.Data[:len(g.dx.Data)]
	geluExp(d, xs)
	for i, e := range d {
		v := xs[i]
		s := 1 / (1 + e)
		du := geluC * (1 + 3*geluA*v*v)
		// s*s*e first: it has vanished long before v*du can overflow.
		d[i] = gs[i] * (s + 2*(s*s*e*v)*du)
	}
	return g.dx
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }
