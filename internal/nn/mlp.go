package nn

import "repro/internal/tensor"

// MLP is the transformer feed-forward block: Linear -> GELU -> Linear with a
// hidden dimension typically 4x the embedding dimension.
type MLP struct {
	Fc1, Fc2 *Linear
	Act      *GELU
}

// NewMLP constructs a two-layer feed-forward network.
func NewMLP(name string, embed, hidden int, seed int64) *MLP {
	return &MLP{
		Fc1: NewLinear(name+".fc1", embed, hidden, SubSeed(seed, 0)),
		Fc2: NewLinear(name+".fc2", hidden, embed, SubSeed(seed, 1)),
		Act: NewGELU(),
	}
}

// SetInferDType selects the arithmetic of the no-grad Infer path for both
// linears.
func (m *MLP) SetInferDType(dt tensor.DType) {
	m.Fc1.SetInferDType(dt)
	m.Fc2.SetInferDType(dt)
}

// Forward applies fc2(gelu(fc1(x))).
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor { return m.forward(x, nil) }

// forward is Forward with res added to fc2's output as it stores (a block's
// residual h + MLP(LN h)); nil adds nothing.
func (m *MLP) forward(x, res *tensor.Tensor) *tensor.Tensor {
	return m.Fc2.forward(m.Act.Forward(m.Fc1.Forward(x)), res)
}

// Infer applies fc2(gelu(fc1(x))) through the no-grad fast paths.
func (m *MLP) Infer(x *tensor.Tensor) *tensor.Tensor { return m.infer(x, nil) }

// infer is Infer with res added as forward adds it.
func (m *MLP) infer(x, res *tensor.Tensor) *tensor.Tensor {
	return m.Fc2.infer(m.Act.Infer(m.Fc1.Infer(x)), res)
}

// Backward back-propagates through both linears and the activation.
func (m *MLP) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return m.Fc1.Backward(m.Act.Backward(m.Fc2.Backward(grad)))
}

// Params returns both linear layers' parameters.
func (m *MLP) Params() []*Param {
	return append(m.Fc1.Params(), m.Fc2.Params()...)
}
