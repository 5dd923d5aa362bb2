package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MSELoss computes the mean squared error over all elements. It owns the
// difference and the gradient Backward returns, which stay valid until the
// same method runs again; steady state, neither method allocates.
type MSELoss struct {
	diff, grad *tensor.Tensor
}

// NewMSELoss returns an MSE loss.
func NewMSELoss() *MSELoss { return &MSELoss{} }

// Forward returns mean((pred-target)^2).
//
// dchag:hotpath
func (l *MSELoss) Forward(pred, target *tensor.Tensor) float64 {
	if !tensor.SameShape(pred, target) {
		panic(fmt.Sprintf("nn: MSELoss shape mismatch %v vs %v", pred.Shape, target.Shape))
	}
	l.diff = tensor.SubInto(tensor.EnsureShape(l.diff, pred.Shape...), pred, target)
	s := 0.0
	for _, v := range l.diff.Data {
		s += v * v
	}
	return s / float64(l.diff.Numel())
}

// Backward returns dLoss/dPred = 2*(pred-target)/N.
//
// dchag:hotpath
func (l *MSELoss) Backward() *tensor.Tensor {
	if l.diff == nil {
		panic("nn: MSELoss.Backward before Forward")
	}
	l.grad = tensor.EnsureShape(l.grad, l.diff.Shape...)
	return tensor.ScaleInto(l.grad, l.diff, 2/float64(l.diff.Numel()))
}

// MaskedMSELoss computes MSE only over positions selected by a mask, the
// objective of masked-autoencoder pretraining (paper Sec. 5.1): the loss is
// evaluated on reconstructed *masked* patches only. Like MSELoss it owns its
// difference and gradient.
type MaskedMSELoss struct {
	diff, grad *tensor.Tensor
	mask       *tensor.Tensor
	count      float64
	inner      int
}

// NewMaskedMSELoss returns a masked MSE loss.
func NewMaskedMSELoss() *MaskedMSELoss { return &MaskedMSELoss{} }

// Forward computes the mean of (pred-target)^2 over positions where
// mask[b,t] == 1. pred and target have shape [B,T,D]; mask has shape [B,T].
//
// dchag:hotpath
func (l *MaskedMSELoss) Forward(pred, target, mask *tensor.Tensor) float64 {
	if !tensor.SameShape(pred, target) {
		panic(fmt.Sprintf("nn: MaskedMSELoss shape mismatch %v vs %v", pred.Shape, target.Shape))
	}
	if len(pred.Shape) != 3 || len(mask.Shape) != 2 || mask.Shape[0] != pred.Shape[0] || mask.Shape[1] != pred.Shape[1] {
		panic(fmt.Sprintf("nn: MaskedMSELoss want pred [B,T,D] and mask [B,T], got %v and %v", pred.Shape, mask.Shape))
	}
	l.diff = tensor.SubInto(tensor.EnsureShape(l.diff, pred.Shape...), pred, target)
	l.mask = mask
	l.inner = pred.Shape[2]
	masked := 0.0
	s := 0.0
	for r, mv := range mask.Data {
		if mv == 0 {
			continue
		}
		masked++
		row := l.diff.Data[r*l.inner : (r+1)*l.inner]
		for _, v := range row {
			s += v * v
		}
	}
	if masked == 0 {
		l.count = 0
		return 0
	}
	l.count = masked * float64(l.inner)
	return s / l.count
}

// Backward returns dLoss/dPred, zero at unmasked positions.
//
// dchag:hotpath
func (l *MaskedMSELoss) Backward() *tensor.Tensor {
	if l.diff == nil {
		panic("nn: MaskedMSELoss.Backward before Forward")
	}
	l.grad = tensor.EnsureShape(l.grad, l.diff.Shape...)
	scale := 2 / l.count // count is 0 only when no row is masked, and then scale is not used
	for r, mv := range l.mask.Data {
		dst := l.grad.Data[r*l.inner : (r+1)*l.inner]
		if mv == 0 {
			clear(dst)
			continue
		}
		for i, v := range l.diff.Data[r*l.inner : (r+1)*l.inner] {
			dst[i] = v * scale
		}
	}
	return l.grad
}

// LatWeightedRMSE computes the latitude-weighted root-mean-square error used
// to evaluate weather forecasts (Z500/T850/U10 in the paper's Fig. 12). The
// field has shape [B, H, W]; rows are weighted by cos(latitude) normalized
// to mean 1, matching the ERA5 evaluation convention.
func LatWeightedRMSE(pred, target *tensor.Tensor) float64 {
	if !tensor.SameShape(pred, target) {
		panic(fmt.Sprintf("nn: LatWeightedRMSE shape mismatch %v vs %v", pred.Shape, target.Shape))
	}
	if len(pred.Shape) != 3 {
		panic(fmt.Sprintf("nn: LatWeightedRMSE wants [B,H,W], got %v", pred.Shape))
	}
	b, h, w := pred.Shape[0], pred.Shape[1], pred.Shape[2]
	weights := make([]float64, h)
	sumW := 0.0
	for i := 0; i < h; i++ {
		// Latitude of row centre, from +90 to -90 degrees.
		lat := (0.5 - (float64(i)+0.5)/float64(h)) * math.Pi
		weights[i] = math.Cos(lat)
		sumW += weights[i]
	}
	for i := range weights {
		weights[i] *= float64(h) / sumW
	}
	s := 0.0
	for bi := 0; bi < b; bi++ {
		for i := 0; i < h; i++ {
			for j := 0; j < w; j++ {
				d := pred.At(bi, i, j) - target.At(bi, i, j)
				s += weights[i] * d * d
			}
		}
	}
	return math.Sqrt(s / float64(b*h*w))
}
