package tensor

import "math"

// The one exponential of the tree, behind softmax and nn.GELU. Its
// arithmetic is defined here and spelled twice — expGo below and the EXP
// macro in exp_amd64.s — and the two agree bit for bit on every input, so a
// result is a function of the element's value alone: not of the lane or
// offset it sat at, the slice length, or whether the assembly ran at all.
// DESIGN.md "Elementwise transcendentals" has the error bound.
const (
	expLo = -708.0 // below: +0
	expHi = 709.0  // above: +Inf
	log2e = 1.44269504088896338700e+00
	ln2Hi = 6.93147180369123816490e-01 // ln2Hi + ln2Lo = ln 2, k*ln2Hi exact for |k| < 2^11
	ln2Lo = 1.90821492927058770002e-10
)

// expGo returns e^x: k = roundeven(x*log2e), r = x - k*ln2 in two FMAs,
// e^r by the degree-13 Taylor polynomial in Horner form, every step an FMA,
// and 2^k by adding k into the exponent field. |r| <= ln2/2 keeps the
// polynomial in [0.70, 1.42] and [expLo, expHi] keeps the exponent normal.
func expGo(x float64) float64 {
	if !(x <= expHi) {
		return x + math.Inf(1) // +Inf above the range, NaN for NaN
	}
	if x < expLo {
		return 0
	}
	k := math.RoundToEven(x * log2e)
	r := math.FMA(-k, ln2Hi, x)
	r = math.FMA(-k, ln2Lo, r)
	p := 1.0 / 6227020800
	p = math.FMA(p, r, 1.0/479001600)
	p = math.FMA(p, r, 1.0/39916800)
	p = math.FMA(p, r, 1.0/3628800)
	p = math.FMA(p, r, 1.0/362880)
	p = math.FMA(p, r, 1.0/40320)
	p = math.FMA(p, r, 1.0/5040)
	p = math.FMA(p, r, 1.0/720)
	p = math.FMA(p, r, 1.0/120)
	p = math.FMA(p, r, 1.0/24)
	p = math.FMA(p, r, 1.0/6)
	p = math.FMA(p, r, 1.0/2)
	p = math.FMA(p, r, 1)
	p = math.FMA(p, r, 1)
	return math.Float64frombits(math.Float64bits(p) + uint64(int64(k))<<52)
}

// GELU in the tanh approximation 0.5*x*(1 + tanh u), u = geluC*(x + geluA*x^3),
// evaluated through 0.5*(1 + tanh u) = sigmoid(2u) as x/(1+e) with
// e = exp(a), a = -2u = x*(geluK1 - geluK2*x*x). The K constants are the
// constant expressions the arithmetic was first written with, which Go folds
// exactly before rounding once to float64; geluK holds them four lanes each
// for the assembly, so neither spelling has a hand-typed bit pattern.
const (
	geluC  = 0.7978845608028654 // sqrt(2/pi)
	geluA  = 0.044715
	geluK1 = -2 * geluC
	geluK2 = 2 * geluC * geluA
	geluK3 = 3 * geluA
)

var geluK = [16]float64{
	geluK1, geluK1, geluK1, geluK1,
	geluK2, geluK2, geluK2, geluK2,
	geluK3, geluK3, geluK3, geluK3,
	geluC, geluC, geluC, geluC,
}

// GELU writes dst[i] = x[i]/(1 + e) with e = exp(min(a, 709)),
// a = x[i]*(geluK1 - (geluK2*x[i])*x[i]): the activation in one pass, the
// exponent held at 709 so that e stays finite (NaN stays NaN). dst and x must
// have the same length and either be the same slice or not overlap. Where the
// CPU has AVX2 it runs in assembly; the result is geluGo's bit for bit.
//
// dchag:hotpath — every MLP's activation, forward and served; it performs
// no heap allocation.
func GELU(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: GELU length mismatch")
	}
	if len(x) == 0 {
		return
	}
	if useSIMD {
		geluAVX2(&dst[0], &x[0], len(x))
		return
	}
	geluGo(dst, x)
}

// GELUBackward writes dst[i] = g[i]*(s + ((2*((s*s)*e)*x[i])*du)), the
// upstream gradient times GELU'(x[i]), with e as in GELU, s = 1/(1+e) and
// du = geluC*(1 + (geluK3*x[i])*x[i]); 1-s is taken as s*e, which has no
// cancellation where s is near 1, and s*s*e is formed first because it has
// vanished long before x*du can overflow. dst, x and g must have the same
// length, and dst must be one of the others or overlap neither. The result
// is geluGradGo's bit for bit.
//
// dchag:hotpath — every MLP's activation gradient; it performs no heap
// allocation.
func GELUBackward(dst, x, g []float64) {
	if len(dst) != len(x) || len(g) != len(x) {
		panic("tensor: GELUBackward length mismatch")
	}
	if len(x) == 0 {
		return
	}
	if useSIMD {
		geluGradAVX2(&dst[0], &x[0], &g[0], len(x))
		return
	}
	geluGradGo(dst, x, g)
}

// geluExp is e^a of GELU for one element. The products that feed a sum are
// rounded by conversion, as the assembly's separate multiplies and adds
// round, so a compiler that fuses multiply-adds cannot contract them.
func geluExp(v float64) float64 {
	a := v * (geluK1 - float64(geluK2*v*v))
	if a > 709 {
		a = 709
	}
	return expGo(a)
}

// geluGo is GELU's Go twin.
func geluGo(dst, x []float64) {
	for i, v := range x {
		dst[i] = v / (1 + geluExp(v))
	}
}

// geluGradGo is GELUBackward's Go twin.
func geluGradGo(dst, x, g []float64) {
	for i, v := range x {
		e := geluExp(v)
		s := 1 / (1 + e)
		du := geluC * (1 + float64(geluK3*v*v))
		dst[i] = g[i] * (s + float64(2*(s*s*e*v)*du))
	}
}

// softmaxRowsGo is the Go spelling of softmaxRowsAVX2: softmax over each
// n-long row of src into dst, which may be src. The row sum is taken in four
// interleaved partial sums, as the vector lanes take it, so both spellings
// round alike.
func softmaxRowsGo(dst, src []float64, n int) {
	for lo := 0; lo < len(src); lo += n {
		row, d := src[lo:lo+n], dst[lo:lo+n]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var lane [4]float64
		for i, v := range row {
			e := expGo(v - m)
			d[i] = e
			lane[i&3] += e
		}
		inv := 1 / ((lane[0] + lane[2]) + (lane[1] + lane[3]))
		for i := range d {
			d[i] *= inv
		}
	}
}
