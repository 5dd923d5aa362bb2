package tensor

import (
	"fmt"
	"math"
	"testing"
)

// sameFloat reports whether a and b are the same float64, bit for bit; two
// NaNs count as the same whatever their payloads, because which of two NaN
// operands an instruction passes on depends on operand order, not on the
// arithmetic.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// geluClampEdge returns the x at which GELU's exponent a = x*(geluK1 -
// (geluK2*x)*x) first exceeds 709 going down: a(x) <= 709 < a(next below x).
func geluClampEdge() float64 {
	a := func(x float64) float64 { return x * (geluK1 - float64(geluK2*x*x)) }
	lo, hi := -30.0, -10.0 // a(lo) > 709 >= a(hi)
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return hi
		}
		if a(mid) > 709 {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// elementwiseInputs are the values the GELU and AdamW kernels are held to
// their twins on: the specials, the exponent's clamp from both sides, and
// normal draws at three scales.
func elementwiseInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e150, -1e150,
		709, math.Nextafter(709, 1000), math.Nextafter(709, 0), -709, 5e-324, -5e-324, 1e-300, 1, -1, 40, -40,
	}
	edge := geluClampEdge()
	for x, k := edge, 0; k < 3; k++ {
		x = math.Nextafter(x, 0)
		xs = append(xs, x)
	}
	for x, k := edge, 0; k < 4; k++ {
		xs = append(xs, x)
		x = math.Nextafter(x, -100)
	}
	rng := NewRNG(41)
	for _, scale := range []float64{1, 4, 30} {
		for i := 0; i < 1500; i++ {
			xs = append(xs, scale*rng.NormFloat64())
		}
	}
	return xs
}

// parentGELUExp, parentGELU and parentGELUGrad are nn.GELU's loops before
// the activation became one pass in each direction, verbatim but for the
// package: the oracle both spellings are held to.
func parentGELUExp(e, x []float64) {
	for i, v := range x {
		a := v * (-2*geluC - 2*geluC*geluA*v*v)
		if a > 709 {
			a = 709
		}
		e[i] = a
	}
	exp(e, e)
}

func parentGELU(d, xs []float64) {
	parentGELUExp(d, xs)
	for i, e := range d {
		d[i] = xs[i] / (1 + e)
	}
}

func parentGELUGrad(d, xs, gs []float64) {
	parentGELUExp(d, xs)
	for i, e := range d {
		v := xs[i]
		s := 1 / (1 + e)
		du := geluC * (1 + 3*geluA*v*v)
		d[i] = gs[i] * (s + 2*(s*s*e*v)*du)
	}
}

// TestGELUKernelsBitwise holds GELU and GELUBackward to their Go twins bit
// for bit under every tier: every input of elementwiseInputs in one call
// (in place too), and each special at every offset of every length 1..33,
// which puts it in every lane of the eight-wide body and of the masked tail,
// with nothing written past the end.
func TestGELUKernelsBitwise(t *testing.T) {
	xs := elementwiseInputs()
	gs := make([]float64, len(xs))
	rng := NewRNG(43)
	for i := range gs {
		gs[i] = rng.NormFloat64()
	}
	gs[0], gs[1], gs[len(gs)-1] = math.NaN(), math.Inf(-1), 0
	withEveryTier(t, func(t *testing.T) {
		check := func(what string, got []float64, x, g []float64) {
			t.Helper()
			for i, v := range x {
				want := make([]float64, 1)
				if g == nil {
					geluGo(want, []float64{v})
				} else {
					geluGradGo(want, []float64{v}, []float64{g[i]})
				}
				if !sameFloat(got[i], want[0]) {
					t.Fatalf("%s kernel=%s: x = %v (%#x) at %d of %d: %v (%#x), twin %v (%#x)", what, KernelTier(),
						v, math.Float64bits(v), i, len(x), got[i], math.Float64bits(got[i]), want[0], math.Float64bits(want[0]))
				}
			}
		}
		got := make([]float64, len(xs))
		GELU(got, xs)
		check("GELU", got, xs, nil)
		GELUBackward(got, xs, gs)
		check("GELUBackward", got, xs, gs)
		inplace := append([]float64(nil), xs...)
		GELU(inplace, inplace)
		check("GELU in place", inplace, xs, nil)

		for _, v := range xs[:25] {
			for n := 1; n <= 33; n++ {
				for off := 0; off < n; off++ {
					x, g := make([]float64, n), make([]float64, n)
					for i := range x {
						x[i], g[i] = float64(i)-7.5, 0.25*float64(i)-1
					}
					x[off] = v
					dst := make([]float64, n+1)
					dst[n] = 42
					GELU(dst[:n], x)
					check(fmt.Sprintf("GELU n=%d off=%d", n, off), dst, x, nil)
					GELUBackward(dst[:n], x, g)
					check(fmt.Sprintf("GELUBackward n=%d off=%d", n, off), dst, x, g)
					if dst[n] != 42 {
						t.Fatalf("GELU wrote past a slice of length %d", n)
					}
				}
			}
		}
	})
}

// TestGELUMatchesParentLoops holds the one-pass GELU to the three passes it
// replaced, bit for bit, under every tier.
func TestGELUMatchesParentLoops(t *testing.T) {
	xs := elementwiseInputs()
	gs := Randn(NewRNG(47), len(xs)).Data
	withEveryTier(t, func(t *testing.T) {
		got, want := make([]float64, len(xs)), make([]float64, len(xs))
		GELU(got, xs)
		parentGELU(want, xs)
		for i := range xs {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("GELU(%v) kernel=%s = %v, parent loops %v", xs[i], KernelTier(), got[i], want[i])
			}
		}
		GELUBackward(got, xs, gs)
		parentGELUGrad(want, xs, gs)
		for i := range xs {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("GELU'(%v)*%v kernel=%s = %v, parent loops %v", xs[i], gs[i], KernelTier(), got[i], want[i])
			}
		}
	})
}

// adamwCases are the coefficient sets the AdamW kernel is held to its twin
// under: the optimizer's defaults at updates 1, 7 and 1000, a zero decay and
// epsilon, and a large learning rate.
var adamwCases = []AdamWCoeffs{
	{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.01, C1: 1 - math.Pow(0.9, 1), C2: 1 - math.Pow(0.999, 1)},
	{LR: 3e-4, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.05, C1: 1 - math.Pow(0.9, 7), C2: 1 - math.Pow(0.999, 7)},
	{LR: 2e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0, C1: 1 - math.Pow(0.9, 1000), C2: 1 - math.Pow(0.999, 1000)},
	{LR: 0.7, Beta1: 0.5, Beta2: 0.75, Eps: 0, WeightDecay: 0.3, C1: 0.5, C2: 0.25},
}

// adamwState draws n weights, moments and gradients, v >= 0.
func adamwState(rng interface{ NormFloat64() float64 }, n int) (w, m, v, g []float64) {
	w, m, v, g = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		w[i], m[i], g[i] = rng.NormFloat64(), 0.1*rng.NormFloat64(), rng.NormFloat64()
		v[i] = 0.01 * math.Abs(rng.NormFloat64())
	}
	return w, m, v, g
}

// TestAdamWKernelBitwise holds AdamW to its Go twin bit for bit under every
// tier and coefficient set: every input of elementwiseInputs as a gradient,
// a weight and a moment, and each special at every offset of every length
// 1..33, with nothing written past the end of any slice.
func TestAdamWKernelBitwise(t *testing.T) {
	xs := elementwiseInputs()
	withEveryTier(t, func(t *testing.T) {
		for ci, c := range adamwCases {
			check := func(what string, w, m, v, g []float64) {
				t.Helper()
				gw, gm, gv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
				ww, wm, wv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
				AdamW(gw, gm, gv, g, c)
				adamwGo(ww, wm, wv, g, c)
				for i := range w {
					if !sameFloat(gw[i], ww[i]) || !sameFloat(gm[i], wm[i]) || !sameFloat(gv[i], wv[i]) {
						t.Fatalf("%s case %d kernel=%s, element %d of %d (w %v m %v v %v g %v): got w %v m %v v %v, twin w %v m %v v %v",
							what, ci, KernelTier(), i, len(w), w[i], m[i], v[i], g[i], gw[i], gm[i], gv[i], ww[i], wm[i], wv[i])
					}
				}
			}
			rng := NewRNG(int64(53 + ci))
			w, m, v, _ := adamwState(rng, len(xs))
			check("gradients", w, m, v, xs)
			check("weights", xs, m, v, w)
			check("first moments", w, xs, v, m)
			vs := make([]float64, len(xs))
			for i, x := range xs {
				vs[i] = math.Abs(x)
			}
			check("second moments", w, m, vs, w)

			for _, x := range xs[:25] {
				for n := 1; n <= 33; n++ {
					for off := 0; off < n; off++ {
						w, m, v, g := adamwState(rng, n+1)
						g[off] = x
						check(fmt.Sprintf("n=%d off=%d", n, off), w[:n], m[:n], v[:n], g[:n])
						end := [4]float64{w[n], m[n], v[n], g[n]}
						AdamW(w[:n], m[:n], v[:n], g[:n], c)
						if end != [4]float64{w[n], m[n], v[n], g[n]} {
							t.Fatalf("AdamW wrote past slices of length %d", n)
						}
					}
				}
			}
		}
	})
}

func TestElementwiseKernelsAllocFreeAndCheckLengths(t *testing.T) {
	w, m, v, g := adamwState(NewRNG(59), 37)
	withEveryTier(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"GELU":         func() { GELU(m, w) },
			"GELUBackward": func() { GELUBackward(m, w, g) },
			"AdamW":        func() { AdamW(w, m, v, g, adamwCases[0]) },
		} {
			if n := testing.AllocsPerRun(10, f); n != 0 {
				t.Fatalf("%s allocates %.1f times per call", name, n)
			}
		}
	})
	GELU(nil, nil)
	GELUBackward(nil, nil, nil)
	AdamW(nil, nil, nil, nil, adamwCases[0])
	for name, f := range map[string]func(){
		"GELU":         func() { GELU(w[:3], w[:4]) },
		"GELUBackward": func() { GELUBackward(m[:4], w[:4], g[:3]) },
		"AdamW":        func() { AdamW(w[:4], m[:4], v[:3], g[:4], adamwCases[0]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted slices of different lengths", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkElementwiseKernels times GELU, GELUBackward and AdamW under every
// tier the host has, ns per element: GELU over a serving rank's share of a
// micro-batch (4 samples x 64 tokens, 128 hidden columns), AdamW over about
// a wx_tp2dp2 rank's parameter elements. Only GELU has an
// avx512 spelling: GELUBackward and AdamW run their AVX2 routines under both
// vector tiers.
func BenchmarkElementwiseKernels(b *testing.B) {
	perElem := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
	}
	run := func(b *testing.B, tier string) {
		x, d := Randn(NewRNG(61), 256*128).Data, Randn(NewRNG(62), 256*128).Data
		dst := make([]float64, len(x))
		b.Run(tier+"/gelu_fwd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GELU(dst, x)
			}
			perElem(b, len(x))
		})
		b.Run(tier+"/gelu_bwd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GELUBackward(dst, x, d)
			}
			perElem(b, len(x))
		})
		w, m, v, g := adamwState(NewRNG(63), 300_000)
		b.Run(tier+"/adamw", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AdamW(w, m, v, g, adamwCases[1])
			}
			perElem(b, len(w))
		})
	}
	eachTier(func() { run(b, KernelTier()) })
}
