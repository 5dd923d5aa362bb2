package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// parentLayerNorm holds LayerNorm's row-at-a-time loops before the layer
// took four rows per pass, verbatim but for the receiver: the oracle the
// layer is held to.
type parentLayerNorm struct {
	*LayerNorm
	xhat, out, dx []float64
	invStd        []float64
}

func (l *parentLayerNorm) normalize(x []float64, rows int) {
	n := l.Dim
	l.xhat, l.out, l.invStd = make([]float64, rows*n), make([]float64, rows*n), make([]float64, rows)
	for r := 0; r < rows; r++ {
		row := x[r*n : (r+1)*n]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(n)
		variance := 0.0
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float64(n)
		inv := 1 / math.Sqrt(variance+l.Eps)
		o := l.out[r*n : (r+1)*n]
		l.invStd[r] = inv
		xh := l.xhat[r*n : (r+1)*n]
		for i, v := range row {
			h := (v - mean) * inv
			xh[i] = h
			o[i] = h*l.Gamma.W.Data[i] + l.Beta.W.Data[i]
		}
	}
}

func (l *parentLayerNorm) backward(g []float64, rows int) {
	n := l.Dim
	l.dx = make([]float64, rows*n)
	for r := 0; r < rows; r++ {
		gy := g[r*n : (r+1)*n]
		xh := l.xhat[r*n : (r+1)*n]
		// Parameter gradients.
		for i := 0; i < n; i++ {
			l.Gamma.Grad.Data[i] += gy[i] * xh[i]
			l.Beta.Grad.Data[i] += gy[i]
		}
		// dyg = dy * gamma.
		sum1, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			dyg := gy[i] * l.Gamma.W.Data[i]
			sum1 += dyg
			sum2 += dyg * xh[i]
		}
		inv := l.invStd[r]
		d := l.dx[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			dyg := gy[i] * l.Gamma.W.Data[i]
			d[i] = inv / float64(n) * (float64(n)*dyg - sum1 - xh[i]*sum2)
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

// TestLayerNormMatchesParentLoops holds Forward, Infer and Backward to the
// row-at-a-time loops bit for bit over rows 1..9 (whole groups of four and
// every tail) and dims 1..65, with gamma and beta away from 1 and 0 and
// parameter gradients that already hold a previous step's values.
func TestLayerNormMatchesParentLoops(t *testing.T) {
	rng := tensor.NewRNG(81)
	for rows := 1; rows <= 9; rows++ {
		for dim := 1; dim <= 65; dim++ {
			l := NewLayerNorm("ln", dim)
			ref := &parentLayerNorm{LayerNorm: NewLayerNorm("ln", dim)}
			for _, p := range []*Param{l.Gamma, l.Beta} {
				copy(p.W.Data, tensor.RandnScaled(rng, 0.5, dim).Data)
				copy(p.Grad.Data, tensor.Randn(rng, dim).Data)
			}
			for i, p := range l.Params() {
				copy(ref.Params()[i].W.Data, p.W.Data)
				copy(ref.Params()[i].Grad.Data, p.Grad.Data)
			}
			x := tensor.RandnScaled(rng, 3, rows, dim)
			for i := range x.Data {
				x.Data[i] += float64(i % 5)
			}
			g := tensor.Randn(rng, rows, dim)
			name := fmt.Sprintf("rows=%d dim=%d", rows, dim)
			ref.normalize(x.Data, rows)
			ref.backward(g.Data, rows)
			sameBits(t, name+" Forward", l.Forward(x).Data, ref.out)
			sameBits(t, name+" Infer", l.Infer(x).Data, ref.out)
			sameBits(t, name+" Backward", l.Backward(g).Data, ref.dx)
			for i, p := range l.Params() {
				sameBits(t, name+" grad "+p.Name, p.Grad.Data, ref.Params()[i].Grad.Data)
			}
		}
	}
}

func BenchmarkLayerNorm(b *testing.B) {
	for _, sh := range [][2]int{{128, 64}, {256, 32}} {
		l := NewLayerNorm("ln", sh[1])
		x, d := tensor.Randn(tensor.NewRNG(5), sh[0], sh[1]), tensor.Randn(tensor.NewRNG(6), sh[0], sh[1])
		perElem := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Numel()), "ns/elem")
		}
		b.Run(fmt.Sprintf("forward/%dx%d", sh[0], sh[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Forward(x)
			}
			perElem(b)
		})
		b.Run(fmt.Sprintf("backward/%dx%d", sh[0], sh[1]), func(b *testing.B) {
			l.Forward(x)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Backward(d)
			}
			perElem(b)
		})
	}
}
