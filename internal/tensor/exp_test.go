package tensor

import (
	"fmt"
	"math"
	"testing"
)

// exp computes dst[i] = e^src[i] through the spelling the tier selects: the
// exponential alone, as GELU and the softmax passes run it inside. dst and
// src must have the same length and either be the same slice or not overlap.
func exp(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: exp length mismatch")
	}
	if len(src) == 0 {
		return
	}
	switch {
	case useAVX512:
		expAVX512(&dst[0], &src[0], len(src))
	case useSIMD:
		expAVX2(&dst[0], &src[0], len(src))
	default:
		for i, v := range src {
			dst[i] = expGo(v)
		}
	}
}

// expSweep is the differential input set: a dense sweep of the kernel's
// range (an irrational step, so reduced arguments land everywhere in
// [-ln2/2, ln2/2]), points either side of every rounding boundary of k, and
// the edges and specials.
func expSweep() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324, 1, -1,
		-708, -708.0001, math.Nextafter(-708, -1000), -745, -1e9, -math.MaxFloat64,
		709, 709.0001, math.Nextafter(709, 1000), 710, 1e9, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
	}
	for x := -708.0; x <= 709; x += math.Pi / 150 {
		xs = append(xs, x)
	}
	for k := -1021; k <= 1022; k++ {
		b := (float64(k) + 0.5) * math.Ln2
		xs = append(xs, b, math.Nextafter(b, 1000), math.Nextafter(b, -1000))
	}
	return xs
}

func ulpDiff(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// TestExpAccuracyAndRange pins the kernel's contract under every tier: within
// 2 ulp of math.Exp on [-708, 709], +0 below, +Inf above, NaN for NaN,
// e^0 == 1.
func TestExpAccuracyAndRange(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		xs := expSweep()
		got := make([]float64, len(xs))
		exp(got, xs)
		worst := uint64(0)
		for i, x := range xs {
			g := got[i]
			switch {
			case x != x:
				if g == g {
					t.Fatalf("Exp(NaN) = %v", g)
				}
			case x < -708:
				if math.Float64bits(g) != 0 {
					t.Fatalf("Exp(%v) = %v, want +0", x, g)
				}
			case x > 709:
				if !math.IsInf(g, 1) {
					t.Fatalf("Exp(%v) = %v, want +Inf", x, g)
				}
			default:
				d := ulpDiff(g, math.Exp(x))
				if d > 2 {
					t.Fatalf("Exp(%v) = %v, math.Exp %v: %d ulp apart", x, g, math.Exp(x), d)
				}
				if d > worst {
					worst = d
				}
				if x == 0 && g != 1 {
					t.Fatalf("Exp(%v) = %v, want exactly 1", x, g)
				}
			}
		}
		t.Logf("%d points, worst %d ulp from math.Exp", len(xs), worst)
	})
}

// TestExpAssemblyMatchesGoTwin is the one-definition pin: each assembly
// spelling (EXP2 under avx2, EXPZ under avx512) and expGo agree bit for bit
// on the whole sweep, NaN payloads and x > 709 included.
func TestExpAssemblyMatchesGoTwin(t *testing.T) {
	if !useSIMD {
		t.Skip("no assembly kernel on this machine")
	}
	xs := expSweep()
	withEveryTier(t, func(t *testing.T) {
		if !useSIMD {
			return // expGo against itself
		}
		got := make([]float64, len(xs))
		exp(got, xs)
		for i, x := range xs {
			if w := expGo(x); math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("x = %v (%#x): %s %#x, Go twin %#x", x, math.Float64bits(x), KernelTier(),
					math.Float64bits(got[i]), math.Float64bits(w))
			}
		}
	})
}

// TestExpValueOnly writes one value at every offset of slices of every
// length 1..33: its result must not depend on the lane, the offset, the
// length or whether it fell in the eight-wide body or the masked tail.
// In-place calls must give the same bits.
func TestExpValueOnly(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		for _, v := range []float64{-3.7, 0.3, 55.5, -720, 800} {
			want := math.Float64bits(expGo(v))
			for n := 1; n <= 33; n++ {
				for off := 0; off < n && off <= 16; off++ {
					src := make([]float64, n)
					for i := range src {
						src[i] = float64(i) - 7.5
					}
					src[off] = v
					dst := make([]float64, n+1)
					dst[n] = 42
					exp(dst[:n], src)
					exp(src, src)
					if math.Float64bits(dst[off]) != want || math.Float64bits(src[off]) != want {
						t.Fatalf("exp(%v) at offset %d of %d: %#x, in place %#x, want %#x", v, off, n,
							math.Float64bits(dst[off]), math.Float64bits(src[off]), want)
					}
					if dst[n] != 42 {
						t.Fatalf("Exp wrote past a slice of length %d", n)
					}
				}
			}
		}
	})
}

func TestExpAllocFreeAndChecksLengths(t *testing.T) {
	x := make([]float64, 37)
	m := Randn(NewRNG(5), 3, 37)
	withEveryTier(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"exp":                func() { exp(x, x) },
			"SoftmaxLastDimInto": func() { SoftmaxLastDimInto(m, m) },
		} {
			if n := testing.AllocsPerRun(10, f); n != 0 {
				t.Fatalf("%s allocates %.1f times per call", name, n)
			}
		}
	})
	exp(nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Exp accepted slices of different lengths")
		}
	}()
	exp(x[:3], x[:4])
}

// softmaxRef is the textbook softmax on math.Exp, sequential sum.
func softmaxRef(t *Tensor) *Tensor {
	out := New(t.Shape...)
	n := t.Shape[len(t.Shape)-1]
	for lo := 0; lo < len(t.Data); lo += n {
		m, s := t.Data[lo], 0.0
		for _, v := range t.Data[lo : lo+n] {
			m = math.Max(m, v)
		}
		for i, v := range t.Data[lo : lo+n] {
			out.Data[lo+i] = math.Exp(v - m)
			s += out.Data[lo+i]
		}
		for i := range out.Data[lo : lo+n] {
			out.Data[lo+i] /= s
		}
	}
	return out
}

// TestSoftmaxContract covers every row length around the vector width, under
// every tier: agreement with the textbook form, rows summing to 1, a row
// alone equal to the same row inside a map, in place equal to out of place,
// and each assembly spelling equal to the Go twin bit for bit.
func TestSoftmaxContract(t *testing.T) {
	var perTier []*Tensor
	var tiers []string
	withEveryTier(t, func(t *testing.T) {
		var all []float64
		for n := 1; n <= 35; n++ {
			x := RandnScaled(NewRNG(int64(n)), 4, 2, 3, 5, n)
			y := SoftmaxLastDimInto(nil, x)
			if d := MaxAbsDiff(y, softmaxRef(x)); d > 1e-15 {
				t.Fatalf("n=%d: %g from the reference softmax", n, d)
			}
			for r := 0; r < 30; r++ {
				row := FromSlice(append([]float64(nil), x.Data[r*n:(r+1)*n]...), n)
				alone := SoftmaxLastDimInto(nil, row)
				sum := 0.0
				for i, v := range alone.Data {
					if math.Float64bits(v) != math.Float64bits(y.Data[r*n+i]) {
						t.Fatalf("n=%d row %d: alone and inside the map differ at %d", n, r, i)
					}
					sum += v
				}
				if math.Abs(sum-1) > float64(n)*0x1p-52 {
					t.Fatalf("n=%d row %d sums to 1%+g", n, r, sum-1)
				}
			}
			inplace := x.Clone()
			SoftmaxLastDimInto(inplace, inplace)
			assertBitwise(t, fmt.Sprintf("in place, n=%d", n), inplace, y)
			all = append(all, y.Data...)
		}
		perTier = append(perTier, FromSlice(all, len(all)))
		tiers = append(tiers, KernelTier())
	})
	for i := 1; i < len(perTier); i++ {
		assertBitwise(t, "softmax "+tiers[0]+" vs "+tiers[i], perTier[0], perTier[i])
	}
}

func TestSoftmaxEdgeRows(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		for n := 1; n <= 19; n++ {
			equal := Full(-3.25, 2, n)
			for _, v := range SoftmaxLastDimInto(nil, equal).Data {
				if v != 1/float64(n) {
					t.Fatalf("all-equal row of %d: %v, want exactly 1/n", n, v)
				}
			}
			wide := New(1, n)
			for i := range wide.Data {
				wide.Data[i] = 1e4 * float64(i%3-1)
			}
			sum := 0.0
			for _, v := range SoftmaxLastDimInto(nil, wide).Data {
				if v != v || v < 0 {
					t.Fatalf("row of %d with a 1e4 spread gave %v", n, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-15 {
				t.Fatalf("row of %d with a 1e4 spread sums to %v", n, sum)
			}
		}
		empty := New(3, 0)
		if got := SoftmaxLastDimInto(empty, empty); got != empty {
			t.Fatal("softmax of an empty tensor did not return dst")
		}
		SoftmaxLastDimInto(nil, New(0, 4))
	})
}

// BenchmarkSoftmax and BenchmarkExp time every kernel tier the machine has,
// ns per element: rows of 16 (a channel group) and 64 (a ViT's tokens), and
// the exponential alone.
func BenchmarkSoftmax(b *testing.B) {
	for _, sh := range [][2]int{{128 * 4 * 16, 16}, {8 * 4 * 64, 64}} {
		x := Randn(NewRNG(3), sh[0], sh[1])
		dst := New(sh[0], sh[1])
		eachTier(func() {
			b.Run(fmt.Sprintf("%s/%dx%d", KernelTier(), sh[0], sh[1]), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					SoftmaxLastDimInto(dst, x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Numel()), "ns/elem")
			})
		})
	}
}

func BenchmarkExp(b *testing.B) {
	for _, n := range []int{16, 4096} {
		x := Randn(NewRNG(4), n)
		dst := make([]float64, n)
		eachTier(func() {
			b.Run(fmt.Sprintf("%s/%d", KernelTier(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					exp(dst, x.Data)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		})
		b.Run(fmt.Sprintf("math.Exp/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, v := range x.Data {
					dst[j] = math.Exp(v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}
