package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// patchifyCopyRows and unpatchifyCopyRows are the copy-per-patch-row
// Patchify and Unpatchify the indexed row walks replaced, kept verbatim as
// their oracle.
func patchifyCopyRows(x *tensor.Tensor, patch int) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("model: Patchify wants [B,C,H,W], got %v", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%patch != 0 || w%patch != 0 {
		panic(fmt.Sprintf("model: image %dx%d not divisible by patch %d", h, w, patch))
	}
	ph, pw := h/patch, w/patch
	t := ph * pw
	d := c * patch * patch
	out := tensor.New(b, t, d)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			for py := 0; py < ph; py++ {
				for px := 0; px < pw; px++ {
					ti := py*pw + px
					for dy := 0; dy < patch; dy++ {
						srcOff := ((bi*c+ci)*h+(py*patch+dy))*w + px*patch
						dstOff := (bi*t+ti)*d + ci*patch*patch + dy*patch
						copy(out.Data[dstOff:dstOff+patch], x.Data[srcOff:srcOff+patch])
					}
				}
			}
		}
	}
	return out
}

func unpatchifyCopyRows(tok *tensor.Tensor, channels, imgH, imgW, patch int) *tensor.Tensor {
	if len(tok.Shape) != 3 {
		panic(fmt.Sprintf("model: Unpatchify wants [B,T,D], got %v", tok.Shape))
	}
	b := tok.Shape[0]
	ph, pw := imgH/patch, imgW/patch
	t := ph * pw
	d := channels * patch * patch
	if tok.Shape[1] != t || tok.Shape[2] != d {
		panic(fmt.Sprintf("model: Unpatchify shape %v does not match C=%d %dx%d P=%d", tok.Shape, channels, imgH, imgW, patch))
	}
	out := tensor.New(b, channels, imgH, imgW)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < channels; ci++ {
			for py := 0; py < ph; py++ {
				for px := 0; px < pw; px++ {
					ti := py*pw + px
					for dy := 0; dy < patch; dy++ {
						srcOff := (bi*t+ti)*d + ci*patch*patch + dy*patch
						dstOff := ((bi*channels+ci)*imgH+(py*patch+dy))*imgW + px*patch
						copy(out.Data[dstOff:dstOff+patch], tok.Data[srcOff:srcOff+patch])
					}
				}
			}
		}
	}
	return out
}

func sameBits(a, b *tensor.Tensor) error {
	if !tensor.SameShape(a, b) {
		return fmt.Errorf("shape %v, want %v", a.Shape, b.Shape)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) || poisonRead(a.Data[i]) {
			return fmt.Errorf("[%d] = %x, want %x", i, math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
	return nil
}

// poisonRead reports a NaN under poisoned lends, which only a read of a
// poisoned buffer makes here: the model under test and its oracle may read
// the same poison and agree bit for bit.
func poisonRead(v float64) bool { return v != v && poisoned }

// poisoned is set while withPoisonedLends runs.
var poisoned bool

// withPoisonedLends is tensor.WithPoisonedLends that also sets poisoned.
func withPoisonedLends(f func()) {
	defer func() { poisoned = false }()
	poisoned = true
	tensor.WithPoisonedLends(f)
}

// TestPatchifyEqualsCopyRows holds both directions to the copying oracle bit
// for bit over ragged grids and patch sizes 1, 2 and 4, Unpatchify also on
// images whose sides leave a remainder below the last whole patch (the
// oracle leaves it zero).
func TestPatchifyEqualsCopyRows(t *testing.T) {
	rng := tensor.NewRNG(81)
	for _, patch := range []int{1, 2, 4} {
		for _, b := range []int{1, 3} {
			for _, c := range []int{1, 2, 5} {
				for _, ph := range []int{1, 2, 3, 5} {
					for _, pw := range []int{1, 3, 4} {
						name := fmt.Sprintf("P%d/B%d/C%d/%dx%d", patch, b, c, ph, pw)
						x := tensor.Randn(rng, b, c, ph*patch, pw*patch)
						if err := sameBits(Patchify(x, patch), patchifyCopyRows(x, patch)); err != nil {
							t.Fatalf("%s Patchify: %v", name, err)
						}
						tok := tensor.Randn(rng, b, ph*pw, c*patch*patch)
						for _, extra := range [][2]int{{0, 0}, {patch - 1, 0}, {0, patch - 1}} {
							h, w := ph*patch+extra[0], pw*patch+extra[1]
							if err := sameBits(Unpatchify(tok, c, h, w, patch), unpatchifyCopyRows(tok, c, h, w, patch)); err != nil {
								t.Fatalf("%s Unpatchify to %dx%d: %v", name, h, w, err)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkUnpatchify times the serving leader's unpatchify of one full
// micro-batch at the serve workloads' shape (B 8, 80 channels, 16×16, patch
// 2), the row walk against the copying oracle.
func BenchmarkUnpatchify(b *testing.B) {
	tok := tensor.Randn(tensor.NewRNG(1), 8, 64, 80*4)
	for _, f := range []struct {
		name string
		run  func(*tensor.Tensor, int, int, int, int) *tensor.Tensor
	}{{"rows", Unpatchify}, {"copy", unpatchifyCopyRows}} {
		b.Run(f.name, func(b *testing.B) {
			for b.Loop() {
				f.run(tok, 80, 16, 16, 2)
			}
		})
	}
}
