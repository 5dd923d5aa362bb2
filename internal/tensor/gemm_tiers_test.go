package tensor

import (
	"fmt"
	"math"
	"testing"
)

// f64Kernel is one tier's float64 product kernel with kernF64AVX512's
// arguments: b2, when nonzero, adds the column panel b2 elements on in B and
// nr on in C, the bias and the residual; bias and res may be nil.
type f64Kernel func(kb int, a []float64, ars, aps int, b []float64, bps, b2 int, c []float64, ldc, tiles int, alpha float64, accum bool, bias, res []float64, rld int)

// f64Tiers returns the float64 kernels this machine can run, the Go twin
// first. The one-panel tiers take a pair of panels one after the other;
// kernF64AVX512 takes pairs only (kernel sends a lone panel to kernF64).
func f64Tiers() (names []string, kerns []f64Kernel) {
	onePanel := func(k func(kb int, a []float64, ars, aps int, b []float64, bps int, c []float64, ldc, tiles int, alpha float64, accum bool, ep Epilogue)) f64Kernel {
		return func(kb int, a []float64, ars, aps int, b []float64, bps, b2 int, c []float64, ldc, tiles int, alpha float64, accum bool, bias, res []float64, rld int) {
			ep := Epilogue{Bias: bias, Res: res, ResLd: rld}
			k(kb, a, ars, aps, b, bps, c, ldc, tiles, alpha, accum, ep)
			if b2 != 0 {
				k(kb, a, ars, aps, b[b2:], bps, c[gemmNR:], ldc, tiles, alpha, accum, ep.at(0, gemmNR))
			}
		}
	}
	names = append(names, "go")
	kerns = append(kerns, onePanel(func(kb int, a []float64, ars, aps int, b []float64, bps int, c []float64, ldc, tiles int, alpha float64, accum bool, ep Epilogue) {
		kernGeneric(kb, gemmNR, a, ars, aps, b, bps, c, ldc, tiles, alpha, accum, ep)
	}))
	if useSIMD {
		names = append(names, "avx2")
		kerns = append(kerns, onePanel(func(kb int, a []float64, ars, aps int, b []float64, bps int, c []float64, ldc, tiles int, alpha float64, accum bool, ep Epilogue) {
			kernF64(kb, &a[0], ars, aps, &b[0], bps, &c[0], ldc, tiles, alpha, accum, first(ep.Bias), first(ep.Res), ep.ResLd)
		}))
	}
	if useAVX512 {
		names = append(names, "avx512")
		kerns = append(kerns, func(kb int, a []float64, ars, aps int, b []float64, bps, b2 int, c []float64, ldc, tiles int, alpha float64, accum bool, bias, res []float64, rld int) {
			kernF64AVX512(kb, &a[0], ars, aps, &b[0], bps, b2, &c[0], ldc, tiles, alpha, accum, first(bias), first(res), rld)
		})
	}
	return names, kerns
}

// TestKernelTiersBitwise holds the float64 kernels of every tier this
// machine has to one another bit for bit, called directly: depths on both
// sides of the small and kc edges, one to five row tiles (an odd last tile
// runs alone in kernF64AVX512), two column panels and (kernF64AVX512 aside)
// one, A as stored, transposed and as a packed tile, B as stored and as
// packed panels, with and without accumulation, alpha != 1. The Go twin is
// an FMA chain like the assembly; a multiply and a separate add would fail
// here.
func TestKernelTiersBitwise(t *testing.T) {
	names, kerns := f64Tiers()
	t.Logf("kernels called directly: %v", names)
	rng := NewRNG(25)
	randn := func(n int) []float64 { return Randn(rng, n).Data }
	const nr, alpha = gemmNR, 0.35
	for _, kb := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256} {
		for tiles := 1; tiles <= 5; tiles++ {
			m := gemmMR * tiles
			for panels := 1; panels <= 2; panels++ {
				n := panels * nr
				for _, layout := range []string{"A", "A^T", "packed A"} {
					// Element (i, p) of A at a[i*ars+p*aps]; a packed tile is
					// one tile.
					var a []float64
					var ars, aps int
					switch layout {
					case "A":
						a, ars, aps = randn(m*(kb+3)), kb+3, 1
					case "A^T":
						a, ars, aps = randn(kb*(m+1)), 1, m+1
					default:
						if tiles > 1 {
							continue
						}
						a, ars, aps = randn(kb*gemmMR), 1, gemmMR
					}
					for _, packedB := range []bool{false, true} {
						b, bps, b2 := randn(kb*(n+5)), n+5, nr
						if packedB {
							b, bps, b2 = randn(kb*n), nr, nr*kb
						}
						if panels == 1 {
							b2 = 0
						}
						ldc := n + 2
						c0 := randn(m * ldc)
						bias, res := randn(n), randn(m*(n+3))
						for _, accum := range []bool{false, true} {
							for _, ep := range []Epilogue{{}, {Bias: bias}, {Res: res}, {Res: res, ResLd: n + 3}, {Bias: bias, Res: res, ResLd: n + 3}} {
								var want []float64
								for ti, kern := range kerns {
									if b2 == 0 && names[ti] == "avx512" {
										continue
									}
									c := append([]float64(nil), c0...)
									kern(kb, a, ars, aps, b, bps, b2, c, ldc, tiles, alpha, accum, ep.Bias, ep.Res, ep.ResLd)
									if ti == 0 {
										want = c
										continue
									}
									for i, v := range c {
										if math.Float64bits(v) != math.Float64bits(want[i]) {
											t.Fatalf("kb=%d tiles=%d panels=%d %s packedB=%v accum=%v bias=%v res=%v rld=%d: %s element %d = %v, Go twin %v",
												kb, tiles, panels, layout, packedB, accum, ep.Bias != nil, ep.Res != nil, ep.ResLd, names[ti], i, v, want[i])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}

	// Through the driver, with a panel pair, a lone panel and ragged edges: a
	// product is the same bits under every tier.
	shapes := [][3]int{{64, 37, 24}, {63, 37, 23}}
	want := make([]*Tensor, len(shapes))
	withEveryTier(t, func(t *testing.T) {
		for i, sh := range shapes {
			rng := NewRNG(int64(i))
			got := MatMulInto(nil, Randn(rng, sh[0], sh[1]), Randn(rng, sh[1], sh[2]))
			if want[i] == nil {
				want[i] = got
				continue
			}
			assertBitwise(t, fmt.Sprintf("MatMulInto %v kernel=%s", sh, KernelTier()), got, want[i])
		}
	})
}
