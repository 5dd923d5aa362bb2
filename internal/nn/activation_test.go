package nn

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// geluRef and geluGradRef are the tanh formulation the layer computed before
// it moved onto tensor.Exp; they stay as the reference it is checked against.
func geluRef(v float64) float64 {
	return 0.5 * v * (1 + math.Tanh(geluC*(v+geluA*v*v*v)))
}

func geluGradRef(v float64) float64 {
	t := math.Tanh(geluC * (v + geluA*v*v*v))
	du := geluC * (1 + 3*geluA*v*v)
	return 0.5*(1+t) + 0.5*v*(1-t*t)*du
}

// geluAt runs the layer forward and backward (upstream gradient 1) at xs.
func geluAt(xs []float64) (y, dy []float64) {
	g := NewGELU()
	x := tensor.FromSlice(xs, len(xs))
	y = g.Forward(x).Data
	return y, g.Backward(tensor.Ones(len(xs))).Data
}

func TestGELUMatchesTanhReference(t *testing.T) {
	var xs []float64
	for x := -10.0; x <= 10; x += 1.0 / 1024 {
		xs = append(xs, x)
	}
	y, dy := geluAt(xs)
	for i, x := range xs {
		tol := 1e-15 * (1 + math.Abs(x))
		if d := math.Abs(y[i] - geluRef(x)); d > tol {
			t.Fatalf("GELU(%v) = %v, tanh form %v (off by %g)", x, y[i], geluRef(x), d)
		}
		if d := math.Abs(dy[i] - geluGradRef(x)); d > tol {
			t.Fatalf("GELU'(%v) = %v, tanh form %v (off by %g)", x, dy[i], geluGradRef(x), d)
		}
	}
}

// TestGELUSaturates pins the far tails, where e^(-2u) has left the double
// range: the value is x or vanishes and the slope is 1 or vanishes, never NaN
// or Inf.
func TestGELUSaturates(t *testing.T) {
	xs := []float64{40, -40, 1e3, -1e3, 1e150, -1e150}
	y, dy := geluAt(xs)
	for i, x := range xs {
		ok := y[i] == x && dy[i] == 1
		if x < 0 {
			ok = math.Abs(y[i]) < 1e-100 && math.Abs(dy[i]) < 1e-100
		}
		if !ok {
			t.Fatalf("GELU(%v) = %v with slope %v", x, y[i], dy[i])
		}
	}
}

func TestGELUInferBitwiseEqualsForward(t *testing.T) {
	g := NewGELU()
	x := tensor.RandnScaled(tensor.NewRNG(31), 3, 5, 7, 9)
	fwd, inf := g.Forward(x), g.Infer(x)
	if fwd == inf {
		t.Fatal("Infer reused Forward's buffer")
	}
	for i := range fwd.Data {
		if math.Float64bits(fwd.Data[i]) != math.Float64bits(inf.Data[i]) {
			t.Fatalf("Infer and Forward differ at %d: %v vs %v", i, inf.Data[i], fwd.Data[i])
		}
	}
}

// TestActivationBackwardChecksGradientShape: a gradient longer or shorter
// than the cached input used to die on a bare index panic or silently write
// a partial result.
func TestActivationBackwardChecksGradientShape(t *testing.T) {
	layers := map[string]Layer{"GELU": NewGELU()}
	for name, l := range layers {
		for _, n := range []int{5, 7} {
			l.Forward(tensor.New(2, 3))
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "nn: "+name+".Backward gradient shape") {
						t.Fatalf("%s.Backward of a %d-element gradient after a 6-element input: panic %q", name, n, msg)
					}
				}()
				l.Backward(tensor.New(n))
			}()
		}
	}
}

func BenchmarkGELU(b *testing.B) {
	g := NewGELU()
	x := tensor.Randn(tensor.NewRNG(5), 512, 256)
	d := tensor.Randn(tensor.NewRNG(6), 512, 256)
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Numel()), "ns/elem")
	}
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Forward(x)
		}
		perElem(b)
	})
	b.Run("backward", func(b *testing.B) {
		g.Forward(x)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Backward(d)
		}
		perElem(b)
	})
}
