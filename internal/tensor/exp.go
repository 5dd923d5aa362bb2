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

// Exp computes dst[i] = e^src[i]. dst and src must have the same length and
// either be the same slice or not overlap. Inputs below -708 give +0, above
// 709 +Inf, NaN gives NaN; in between the result is within 2 ulp of
// math.Exp, and e^0 is exactly 1.
//
// dchag:hotpath — softmax and GELU run every element through this; it
// performs no heap allocation.
func Exp(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Exp length mismatch")
	}
	if len(src) == 0 {
		return
	}
	if useSIMD {
		expAVX2(&dst[0], &src[0], len(src))
		return
	}
	for i, v := range src {
		dst[i] = expGo(v)
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
