package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// parentLinearBackward is LinearAggregator.Backward's loop before it took
// four group members per pass, verbatim but for the receiver's fields passed
// in (the bias gradient, already the row-accumulate then, is left out): the
// oracle the layer is held to.
func parentLinearBackward(group int, x, d *tensor.Tensor, w, wgrad []float64) *tensor.Tensor {
	n, e := x.Shape[0], x.Shape[2]
	dx := tensor.New(n, group, e)
	for ni := 0; ni < n; ni++ {
		src := d.Data[ni*e : (ni+1)*e]
		for g := 0; g < group; g++ {
			w := w[g]
			xrow := x.Data[(ni*group+g)*e : (ni*group+g+1)*e]
			drow := dx.Data[(ni*group+g)*e : (ni*group+g+1)*e]
			s := 0.0
			for i, v := range src {
				drow[i] = w * v
				s += v * xrow[i]
			}
			wgrad[g] += s
		}
	}
	return dx
}

// TestLinearAggregatorBackwardMatchesParentLoop holds the input and weight
// gradients to the member-at-a-time loop bit for bit over groups 1..9 (whole
// passes of four and every tail), several widths and location counts, with a
// weight gradient that already holds a previous step's values; the dx
// scratch is reused dirty between calls.
func TestLinearAggregatorBackwardMatchesParentLoop(t *testing.T) {
	rng := tensor.NewRNG(91)
	for group := 1; group <= 9; group++ {
		for _, e := range []int{1, 3, 8, 33} {
			for _, n := range []int{1, 5} {
				a := NewLinearAggregator("lin", group, e, int64(group))
				copy(a.Weight.Grad.Data, tensor.Randn(rng, group).Data)
				wgrad := append([]float64(nil), a.Weight.Grad.Data...)
				name := fmt.Sprintf("group=%d e=%d n=%d", group, e, n)
				for round := 0; round < 2; round++ {
					x, d := tensor.RandnScaled(rng, 2, n, group, e), tensor.Randn(rng, n, e)
					a.Forward(x)
					got := a.Backward(d)
					want := parentLinearBackward(group, x, d, a.Weight.W.Data, wgrad)
					for i := range got.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s round %d: dx[%d] = %v, parent loop %v", name, round, i, got.Data[i], want.Data[i])
						}
					}
					for g := range wgrad {
						if math.Float64bits(a.Weight.Grad.Data[g]) != math.Float64bits(wgrad[g]) {
							t.Fatalf("%s round %d: dWeight[%d] = %v, parent loop %v", name, round, g, a.Weight.Grad.Data[g], wgrad[g])
						}
					}
				}
			}
		}
	}
}
