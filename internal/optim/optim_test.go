package optim

import (
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
	if opt.StepCount() != 500 {
		t.Fatalf("StepCount = %d", opt.StepCount())
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

func TestCosineScheduleShape(t *testing.T) {
	s := CosineSchedule{BaseLR: 1, MinLR: 0.1, WarmupSteps: 10, TotalSteps: 110}
	if got := s.At(0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("warmup start = %v, want 0.1", got)
	}
	if got := s.At(9); math.Abs(got-1) > 1e-12 {
		t.Fatalf("warmup end = %v, want 1", got)
	}
	mid := s.At(60)
	if mid >= 1 || mid <= 0.1 {
		t.Fatalf("mid-decay = %v, want strictly between min and base", mid)
	}
	if got := s.At(110); got != 0.1 {
		t.Fatalf("post-total = %v, want MinLR", got)
	}
	// Monotone decay after warmup.
	prev := s.At(10)
	for i := 11; i < 110; i++ {
		cur := s.At(i)
		if cur > prev+1e-12 {
			t.Fatalf("cosine decay not monotone at %d", i)
		}
		prev = cur
	}
}

func TestScheduleApplySetsLR(t *testing.T) {
	p, _ := quadratic([]float64{1})
	opt := NewAdamW([]*nn.Param{p}, 1, 0)
	s := CosineSchedule{BaseLR: 0.5, MinLR: 0, WarmupSteps: 0, TotalSteps: 100}
	lr := s.Apply(opt, 0)
	if opt.LR() != lr || math.Abs(lr-0.5) > 1e-12 {
		t.Fatalf("Apply lr = %v opt.LR = %v", lr, opt.LR())
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
	if o2.StepCount() != 5 {
		t.Fatalf("imported step count %d, want 5", o2.StepCount())
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
