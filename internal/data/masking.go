package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// RandomMask returns a [batch, tokens] 0/1 mask with exactly
// round(ratio*tokens) ones per row, sampled without replacement from rng —
// the MAE masking scheme (the paper's Fig. 10 pipeline). Deterministic in
// the rng state, so serial and distributed runs can share masks exactly.
func RandomMask(rng interface {
	Perm(n int) []int
}, batch, tokens int, ratio float64) *tensor.Tensor {
	if ratio < 0 || ratio > 1 {
		panic(fmt.Sprintf("data: mask ratio %v out of [0,1]", ratio))
	}
	k := int(float64(tokens)*ratio + 0.5)
	mask := tensor.New(batch, tokens)
	for b := 0; b < batch; b++ {
		perm := rng.Perm(tokens)
		for i := 0; i < k; i++ {
			mask.Set(1, b, perm[i])
		}
	}
	return mask
}

// Normalize standardizes x in place to zero mean and unit variance per
// channel over the batch: x has shape [B, C, H, W]. Returns the per-channel
// means and stds used (std floors at 1e-8). Standard preprocessing for both
// applications.
func Normalize(x *tensor.Tensor) (means, stds []float64) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("data: Normalize wants [B,C,H,W], got %v", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	n := float64(b * h * w)
	means = make([]float64, c)
	stds = make([]float64, c)
	for ci := 0; ci < c; ci++ {
		sum := 0.0
		for bi := 0; bi < b; bi++ {
			off := (bi*c + ci) * h * w
			for p := 0; p < h*w; p++ {
				sum += x.Data[off+p]
			}
		}
		mean := sum / n
		variance := 0.0
		for bi := 0; bi < b; bi++ {
			off := (bi*c + ci) * h * w
			for p := 0; p < h*w; p++ {
				d := x.Data[off+p] - mean
				variance += d * d
			}
		}
		std := math.Sqrt(variance / n)
		if std < 1e-8 {
			std = 1e-8
		}
		means[ci], stds[ci] = mean, std
		inv := 1 / std
		for bi := 0; bi < b; bi++ {
			off := (bi*c + ci) * h * w
			for p := 0; p < h*w; p++ {
				x.Data[off+p] = (x.Data[off+p] - mean) * inv
			}
		}
	}
	return means, stds
}
