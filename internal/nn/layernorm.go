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

// The forward and backward passes take four rows at a time. A row's sums
// run in element order from +0 exactly as one row alone would take them, but
// the four rows' chains are interleaved, so four adds are in flight where one
// dependency chain left the adder waiting. Every product that feeds a sum is
// rounded by conversion, so a compiler that fuses multiply-adds cannot
// contract it and the bits are those of the row-at-a-time loops.

// rowQuad returns rows r..r+3 of a tensor of rows rows, the last row standing
// in for the rows past the end: a tail of one to three rows runs the
// four-row body, which writes the repeated row's results twice, bit for bit
// the same.
func rowQuad(r, rows int) [4]int {
	last := rows - 1
	return [4]int{r, min(r+1, last), min(r+2, last), min(r+3, last)}
}

// normalize writes the normalized, affine-transformed rows of x2 into out;
// with cache it also records xhat and invStd for backward.
//
// dchag:hotpath — per-token normalization loop, run twice per block per
// step.
func (l *LayerNorm) normalize(out, x2 *tensor.Tensor, cache bool) {
	for r := 0; r < x2.Shape[0]; r += 4 {
		l.normalize4(out.Data, x2.Data, rowQuad(r, x2.Shape[0]), cache)
	}
}

// normalize4 is normalize over the four rows q: per row the mean, the
// variance about it, inv = 1/sqrt(var+eps), then h = (x-mean)*inv and
// out = h*gamma + beta.
func (l *LayerNorm) normalize4(out, x []float64, q [4]int, cache bool) {
	n := l.Dim
	fn := float64(n)
	x0, x1, x2, x3 := x[q[0]*n:][:n], x[q[1]*n:][:n], x[q[2]*n:][:n], x[q[3]*n:][:n]
	var m0, m1, m2, m3 float64
	for i, v := range x0 {
		m0 += v
		m1 += x1[i]
		m2 += x2[i]
		m3 += x3[i]
	}
	m0, m1, m2, m3 = m0/fn, m1/fn, m2/fn, m3/fn
	var v0, v1, v2, v3 float64
	for i, v := range x0 {
		d0, d1, d2, d3 := v-m0, x1[i]-m1, x2[i]-m2, x3[i]-m3
		v0 += float64(d0 * d0)
		v1 += float64(d1 * d1)
		v2 += float64(d2 * d2)
		v3 += float64(d3 * d3)
	}
	i0 := 1 / math.Sqrt(v0/fn+l.Eps)
	i1 := 1 / math.Sqrt(v1/fn+l.Eps)
	i2 := 1 / math.Sqrt(v2/fn+l.Eps)
	i3 := 1 / math.Sqrt(v3/fn+l.Eps)
	gamma, beta := l.Gamma.W.Data[:n], l.Beta.W.Data[:n]
	o0, o1, o2, o3 := out[q[0]*n:][:n], out[q[1]*n:][:n], out[q[2]*n:][:n], out[q[3]*n:][:n]
	if !cache {
		for i, v := range x0 {
			o0[i] = float64((v-m0)*i0*gamma[i]) + beta[i]
			o1[i] = float64((x1[i]-m1)*i1*gamma[i]) + beta[i]
			o2[i] = float64((x2[i]-m2)*i2*gamma[i]) + beta[i]
			o3[i] = float64((x3[i]-m3)*i3*gamma[i]) + beta[i]
		}
		return
	}
	l.invStd[q[0]], l.invStd[q[1]], l.invStd[q[2]], l.invStd[q[3]] = i0, i1, i2, i3
	xh := l.xhat.Data
	h0, h1, h2, h3 := xh[q[0]*n:][:n], xh[q[1]*n:][:n], xh[q[2]*n:][:n], xh[q[3]*n:][:n]
	for i, v := range x0 {
		a0, a1, a2, a3 := (v-m0)*i0, (x1[i]-m1)*i1, (x2[i]-m2)*i2, (x3[i]-m3)*i3
		h0[i], h1[i], h2[i], h3[i] = a0, a1, a2, a3
		o0[i] = float64(a0*gamma[i]) + beta[i]
		o1[i] = float64(a1*gamma[i]) + beta[i]
		o2[i] = float64(a2*gamma[i]) + beta[i]
		o3[i] = float64(a3*gamma[i]) + beta[i]
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
	for r := 0; r < rows; r += 4 {
		l.backward4(dx.Data, g2.Data, rowQuad(r, rows), min(4, rows-r))
	}
}

// backward4 is backward over the four rows q, of which the first k are
// distinct: the gamma and beta gradients take the k rows in ascending order
// per column, then per row sum1 = sum(dyg) and sum2 = sum(dyg*xhat) with
// dyg = dy*gamma, and dx = (inv/n)*((n*dyg - sum1) - xhat*sum2).
func (l *LayerNorm) backward4(dx, gy []float64, q [4]int, k int) {
	n := l.Dim
	fn := float64(n)
	xh := l.xhat.Data
	g0, g1, g2, g3 := gy[q[0]*n:][:n], gy[q[1]*n:][:n], gy[q[2]*n:][:n], gy[q[3]*n:][:n]
	h0, h1, h2, h3 := xh[q[0]*n:][:n], xh[q[1]*n:][:n], xh[q[2]*n:][:n], xh[q[3]*n:][:n]
	gg, gb := l.Gamma.Grad.Data[:n], l.Beta.Grad.Data[:n]
	if k == 4 {
		for i := range gg {
			gg[i] = gg[i] + float64(g0[i]*h0[i]) + float64(g1[i]*h1[i]) + float64(g2[i]*h2[i]) + float64(g3[i]*h3[i])
			gb[i] = gb[i] + g0[i] + g1[i] + g2[i] + g3[i]
		}
	} else {
		for _, r := range q[:k] {
			gr, hr := gy[r*n:][:n], xh[r*n:][:n]
			for i := range gg {
				gg[i] += float64(gr[i] * hr[i])
				gb[i] += gr[i]
			}
		}
	}
	gamma := l.Gamma.W.Data[:n]
	var s10, s11, s12, s13, s20, s21, s22, s23 float64
	for i, gm := range gamma {
		d0, d1, d2, d3 := float64(g0[i]*gm), float64(g1[i]*gm), float64(g2[i]*gm), float64(g3[i]*gm)
		s10 += d0
		s11 += d1
		s12 += d2
		s13 += d3
		s20 += float64(d0 * h0[i])
		s21 += float64(d1 * h1[i])
		s22 += float64(d2 * h2[i])
		s23 += float64(d3 * h3[i])
	}
	k0, k1, k2, k3 := l.invStd[q[0]]/fn, l.invStd[q[1]]/fn, l.invStd[q[2]]/fn, l.invStd[q[3]]/fn
	d0, d1, d2, d3 := dx[q[0]*n:][:n], dx[q[1]*n:][:n], dx[q[2]*n:][:n], dx[q[3]*n:][:n]
	for i, gm := range gamma {
		d0[i] = k0 * (float64(fn*(g0[i]*gm)) - s10 - float64(h0[i]*s20))
		d1[i] = k1 * (float64(fn*(g1[i]*gm)) - s11 - float64(h1[i]*s21))
		d2[i] = k2 * (float64(fn*(g2[i]*gm)) - s12 - float64(h2[i]*s22))
		d3[i] = k3 * (float64(fn*(g3[i]*gm)) - s13 - float64(h3[i]*s23))
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
