package optim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadratic builds a single-parameter problem minimizing |w - target|^2 and
// returns the param plus a function that computes loss and fills the grad.
func quadratic(target []float64) (*nn.Param, func() float64) {
	p := nn.NewParam("w", tensor.New(len(target)))
	step := func() float64 {
		loss := 0.0
		for i := range target {
			d := p.W.Data[i] - target[i]
			loss += d * d
			p.Grad.Data[i] = 2 * d
		}
		return loss
	}
	return p, step
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	p, step := quadratic([]float64{2, -4})
	opt := NewAdamW([]*nn.Param{p}, 0.1, 0)
	for i := 0; i < 500; i++ {
		step()
		opt.Step()
	}
	if loss := step(); loss > 1e-6 {
		t.Fatalf("AdamW did not converge: loss %v", loss)
	}
	if opt.step != 500 {
		t.Fatalf("step count = %d", opt.step)
	}
}

func TestAdamWFirstStepMagnitude(t *testing.T) {
	// With bias correction, the first Adam step is ~lr regardless of
	// gradient scale.
	p := nn.NewParam("w", tensor.New(1))
	p.Grad.Data[0] = 1e-3
	opt := NewAdamW([]*nn.Param{p}, 0.5, 0)
	opt.Step()
	if math.Abs(math.Abs(p.W.Data[0])-0.5) > 1e-3 {
		t.Fatalf("first step = %v, want ~lr=0.5", p.W.Data[0])
	}
}

func TestAdamWWeightDecayShrinksWeights(t *testing.T) {
	p := nn.NewParam("w", tensor.Full(10, 1))
	// Zero gradient: only decay acts.
	opt := NewAdamW([]*nn.Param{p}, 0.1, 0.1)
	opt.Step()
	if p.W.Data[0] >= 10 {
		t.Fatal("weight decay must shrink weights with zero gradient")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParam("w", tensor.New(2))
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	norm := ClipGradNorm([]*nn.Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	after := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(after-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", after)
	}
	// Below the threshold: untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 0.3, 0.4
	ClipGradNorm([]*nn.Param{p}, 1)
	if p.Grad.Data[0] != 0.3 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestOptimizerTrainsLinearRegression(t *testing.T) {
	// End-to-end sanity: fit y = xW with Linear + AdamW.
	rng := tensor.NewRNG(7)
	trueW := tensor.Randn(rng, 3, 2)
	l := nn.NewLinear("l", 3, 2, 8)
	opt := NewAdamW(l.Params(), 0.05, 0)
	loss := nn.NewMSELoss()
	var last float64
	for i := 0; i < 300; i++ {
		x := tensor.Randn(rng, 16, 3)
		y := tensor.MatMulInto(nil, x, trueW)
		pred := l.Forward(x)
		last = loss.Forward(pred, y)
		nn.ZeroGrads(l.Params())
		l.Backward(loss.Backward())
		opt.Step()
	}
	if last > 1e-3 {
		t.Fatalf("linear regression did not fit: loss %v", last)
	}
}

func TestAdamWStateRoundTripContinuesTrajectory(t *testing.T) {
	// Export after k steps, import into a fresh optimizer over a copied
	// parameter, continue both: the trajectories must be bitwise identical
	// (moments and bias-correction step count both restored).
	target := []float64{3, -1, 0.5}
	p1, step1 := quadratic(target)
	o1 := NewAdamW([]*nn.Param{p1}, 0.05, 0.01)
	for i := 0; i < 5; i++ {
		step1()
		o1.Step()
	}

	p2, step2 := quadratic(target)
	copy(p2.W.Data, p1.W.Data)
	o2 := NewAdamW([]*nn.Param{p2}, 0.05, 0.01)
	if err := o2.ImportState(o1.ExportState()); err != nil {
		t.Fatal(err)
	}
	if o2.step != 5 {
		t.Fatalf("imported step count %d, want 5", o2.step)
	}
	for i := 0; i < 5; i++ {
		step1()
		o1.Step()
		step2()
		o2.Step()
		for j := range p1.W.Data {
			if p1.W.Data[j] != p2.W.Data[j] {
				t.Fatalf("trajectories diverge at continued step %d index %d", i, j)
			}
		}
	}
}

// parentAdamWStep is AdamW.Step's loop before the update became one
// tensor.AdamW pass per parameter, verbatim but for the receiver's fields
// passed in: the oracle the optimizer is held to.
func parentAdamWStep(params []*nn.Param, ms, vs map[string][]float64, lr, beta1, beta2, eps, wd float64, step int) {
	c1 := 1 - math.Pow(beta1, float64(step))
	c2 := 1 - math.Pow(beta2, float64(step))
	for _, p := range params {
		m, v := ms[p.Name], vs[p.Name]
		for j := range p.W.Data {
			g := p.Grad.Data[j]
			m[j] = beta1*m[j] + (1-beta1)*g
			v[j] = beta2*v[j] + (1-beta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			p.W.Data[j] -= lr * (mh/(math.Sqrt(vh)+eps) + wd*p.W.Data[j])
		}
	}
}

// TestAdamWMatchesParentLoop runs the optimizer and the parent's loop side
// by side over parameters of every length 1..9 and 33 for twelve steps, new
// gradients each step and the learning rate changing, and requires the
// weights and both moments to agree bit for bit.
func TestAdamWMatchesParentLoop(t *testing.T) {
	rng := tensor.NewRNG(71)
	var params, ref []*nn.Param
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
		w := tensor.Randn(rng, n)
		params = append(params, nn.NewParam(fmt.Sprint("p", n), w.Clone()))
		ref = append(ref, nn.NewParam(fmt.Sprint("p", n), w.Clone()))
	}
	opt := NewAdamW(params, 1e-2, 0.05)
	ms, vs := map[string][]float64{}, map[string][]float64{}
	for _, p := range ref {
		ms[p.Name], vs[p.Name] = make([]float64, p.Numel()), make([]float64, p.Numel())
	}
	for step := 1; step <= 12; step++ {
		lr := 1e-2 / float64(step)
		opt.lr = lr
		for i, p := range params {
			g := tensor.Randn(rng, p.Numel())
			copy(p.Grad.Data, g.Data)
			copy(ref[i].Grad.Data, g.Data)
		}
		opt.Step()
		parentAdamWStep(ref, ms, vs, lr, opt.Beta1, opt.Beta2, opt.Eps, opt.WeightDecay, step)
		st := opt.ExportState()
		for i, p := range params {
			for j := range p.W.Data {
				got := []float64{p.W.Data[j], st.Moments[p.Name]["m"][j], st.Moments[p.Name]["v"][j]}
				want := []float64{ref[i].W.Data[j], ms[p.Name][j], vs[p.Name][j]}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("step %d, %s[%d]: w/m/v %v, parent loop %v", step, p.Name, j, got, want)
					}
				}
			}
		}
	}
}

func TestImportStateReportsAllMismatches(t *testing.T) {
	params := []*nn.Param{
		nn.NewParam("a", tensor.New(2)),
		nn.NewParam("b", tensor.New(3)),
	}
	o := NewAdamW(params, 0.1, 0)
	st := State{
		Algo: "sgd", // wrong algo
		Moments: map[string]Moment{
			"a":     {"m": []float64{1}, "v": []float64{1, 2}}, // short "m"
			"ghost": {"m": []float64{0}, "v": []float64{0}},    // unknown param
		},
		// "b" missing entirely
	}
	err := o.ImportState(st)
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{`algo "sgd"`, `"a"`, `missing moments for parameter "b"`, `unknown parameter "ghost"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// Failed import must not have touched the optimizer's state.
	if s := o.ExportState(); s.Step != 0 || len(s.Moments["a"]["m"]) != 2 {
		t.Fatal("failed import mutated optimizer state")
	}
}

func TestDuplicateParamNamesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate names must panic")
		}
	}()
	NewAdamW([]*nn.Param{
		nn.NewParam("w", tensor.New(1)),
		nn.NewParam("w", tensor.New(1)),
	}, 0.1, 0)
}
