package nn

import (
	"math"

	"repro/internal/tensor"
)

// LayerNorm normalizes the last dimension of its input to zero mean and unit
// variance, then applies a learned affine transform (gamma, beta).
// Normalization statistics always run in float64, also under an F32
// inference dtype (the reductions are cheap and precision-critical).
type LayerNorm struct {
	Dim   int
	Eps   float64
	Gamma *Param // [Dim]
	Beta  *Param // [Dim]

	xhat   *tensor.Tensor // normalized input, cached for backward
	invStd []float64      // 1/sqrt(var+eps) per row

	x2, xi2, g2 *tensor.Tensor // folded headers over the Forward / Infer / Backward argument

	out  *tensor.Tensor // Forward output scratch
	iout *tensor.Tensor // Infer output scratch (separate so eval passes
	// never clobber a pending Backward's upstream activations)
	dx *tensor.Tensor // Backward scratch
}

// NewLayerNorm constructs a LayerNorm over the given dimension with
// gamma = 1 and beta = 0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		Dim:   dim,
		Eps:   1e-5,
		Gamma: NewParam(name+".gamma", tensor.Ones(dim)),
		Beta:  NewParam(name+".beta", tensor.New(dim)),
	}
}

// Forward normalizes over the last dimension.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	mustLastDim("LayerNorm.Forward", x, l.Dim)
	l.x2 = foldInto(l.x2, x)
	rows := l.x2.Shape[0]
	l.xhat = tensor.EnsureShape(l.xhat, rows, l.Dim)
	l.invStd = ensureFloats(l.invStd, rows)
	l.out = tensor.EnsureShape(l.out, rows, l.Dim)
	l.normalize(l.out, l.x2, true)
	return unfoldLike(l.out, x, l.Dim)
}

// Infer computes Forward's output without caching the normalized input or
// inverse standard deviations for backward.
func (l *LayerNorm) Infer(x *tensor.Tensor) *tensor.Tensor {
	mustLastDim("LayerNorm.Infer", x, l.Dim)
	l.xi2 = foldInto(l.xi2, x)
	l.iout = tensor.EnsureShape(l.iout, l.xi2.Shape[0], l.Dim)
	l.normalize(l.iout, l.xi2, false)
	return unfoldLike(l.iout, x, l.Dim)
}

// normalize writes the normalized, affine-transformed rows of x2 into out;
// with cache it also records xhat and invStd for backward.
//
// dchag:hotpath — per-token normalization loop, run twice per block per
// step.
func (l *LayerNorm) normalize(out, x2 *tensor.Tensor, cache bool) {
	rows := x2.Shape[0]
	n := l.Dim
	for r := 0; r < rows; r++ {
		row := x2.Data[r*n : (r+1)*n]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(n)
		variance := 0.0
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float64(n)
		inv := 1 / math.Sqrt(variance+l.Eps)
		o := out.Data[r*n : (r+1)*n]
		if cache {
			l.invStd[r] = inv
			xh := l.xhat.Data[r*n : (r+1)*n]
			for i, v := range row {
				h := (v - mean) * inv
				xh[i] = h
				o[i] = h*l.Gamma.W.Data[i] + l.Beta.W.Data[i]
			}
		} else {
			for i, v := range row {
				h := (v - mean) * inv
				o[i] = h*l.Gamma.W.Data[i] + l.Beta.W.Data[i]
			}
		}
	}
}

// Backward implements the standard layer-norm gradient:
//
//	dx = (1/n) * invStd * gamma ⊙ (n*dy' - sum(dy') - xhat * sum(dy' ⊙ xhat))
//
// where dy' = dy (per-element, before gamma scaling is folded in).
func (l *LayerNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	mustLastDim("LayerNorm.Backward", grad, l.Dim)
	if l.xhat == nil {
		panic("nn: LayerNorm.Backward before Forward")
	}
	l.g2 = foldInto(l.g2, grad)
	l.dx = tensor.EnsureShape(l.dx, l.g2.Shape[0], l.Dim)
	l.backward(l.dx, l.g2)
	return unfoldLike(l.dx, grad, l.Dim)
}

// backward accumulates the gamma/beta gradients and writes dx.
//
// dchag:hotpath — per-token normalization backward loop.
func (l *LayerNorm) backward(dx, g2 *tensor.Tensor) {
	rows := g2.Shape[0]
	n := l.Dim
	for r := 0; r < rows; r++ {
		gy := g2.Data[r*n : (r+1)*n]
		xh := l.xhat.Data[r*n : (r+1)*n]
		// Parameter gradients.
		for i := 0; i < n; i++ {
			l.Gamma.Grad.Data[i] += gy[i] * xh[i]
			l.Beta.Grad.Data[i] += gy[i]
		}
		// dyg = dy * gamma.
		sum1, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			dyg := gy[i] * l.Gamma.W.Data[i]
			sum1 += dyg
			sum2 += dyg * xh[i]
		}
		inv := l.invStd[r]
		d := dx.Data[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			dyg := gy[i] * l.Gamma.W.Data[i]
			d[i] = inv / float64(n) * (float64(n)*dyg - sum1 - xh[i]*sum2)
		}
	}
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// ensureFloats returns a float64 slice of length n, reusing s's backing
// array when it is large enough.
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
