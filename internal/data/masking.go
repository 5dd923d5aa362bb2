package data

import (
	"fmt"

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
