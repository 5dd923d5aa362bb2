package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// dotAll returns sum(a*b) used as a scalar test loss.
func dotAll(a, b *tensor.Tensor) float64 {
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// checkGrad compares an analytic gradient against central finite differences
// of the scalar function loss() with respect to x.
func checkGrad(t *testing.T, name string, x, analytic *tensor.Tensor, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic.Data[i]) > tol {
			t.Fatalf("%s: grad mismatch at %d: numeric %.10f analytic %.10f", name, i, numeric, analytic.Data[i])
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(10)
	l := NewLinear("lin", 4, 3, 11)
	x := tensor.Randn(rng, 2, 5, 4)
	r := tensor.Randn(rng, 2, 5, 3)

	loss := func() float64 { return dotAll(l.Forward(x), r) }
	loss() // populate cache
	ZeroGrads(l.Params())
	dx := l.Backward(r)

	checkGrad(t, "linear/x", x, dx, loss, 1e-6)
	checkGrad(t, "linear/W", l.Weight.W, l.Weight.Grad, loss, 1e-6)
	checkGrad(t, "linear/b", l.Bias.W, l.Bias.Grad, loss, 1e-6)
}

func TestLinearNoBias(t *testing.T) {
	l := NewLinearFrom("lin", tensor.XavierUniform(tensor.NewRNG(5), 3, 2), nil)
	if len(l.Params()) != 1 {
		t.Fatalf("Params = %d, want 1 (weight only)", len(l.Params()))
	}
	x := tensor.Randn(tensor.NewRNG(1), 4, 3)
	y := l.Forward(x)
	want := tensor.MatMulInto(nil, x, l.Weight.W)
	if tensor.MaxAbsDiff(y, want) > 1e-12 {
		t.Fatal("bias-free forward should be pure matmul")
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := tensor.NewRNG(20)
	l := NewLayerNorm("ln", 6)
	// Non-trivial gamma/beta so their gradients are exercised.
	for i := range l.Gamma.W.Data {
		l.Gamma.W.Data[i] = 0.5 + 0.1*float64(i)
		l.Beta.W.Data[i] = -0.2 * float64(i)
	}
	x := tensor.Randn(rng, 3, 6)
	r := tensor.Randn(rng, 3, 6)

	loss := func() float64 { return dotAll(l.Forward(x), r) }
	loss()
	ZeroGrads(l.Params())
	dx := l.Backward(r)

	checkGrad(t, "layernorm/x", x, dx, loss, 1e-5)
	checkGrad(t, "layernorm/gamma", l.Gamma.W, l.Gamma.Grad, loss, 1e-5)
	checkGrad(t, "layernorm/beta", l.Beta.W, l.Beta.Grad, loss, 1e-5)
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := tensor.NewRNG(21)
	l := NewLayerNorm("ln", 8)
	x := tensor.RandnScaled(rng, 5, 4, 8)
	y := l.Forward(x)
	for rIdx := 0; rIdx < 4; rIdx++ {
		row := y.Data[rIdx*8 : (rIdx+1)*8]
		mean, varr := 0.0, 0.0
		for _, v := range row {
			mean += v
		}
		mean /= 8
		for _, v := range row {
			varr += (v - mean) * (v - mean)
		}
		varr /= 8
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-3 {
			t.Fatalf("row %d not normalized: mean %v var %v", rIdx, mean, varr)
		}
	}
}

func TestGELUGradients(t *testing.T) {
	rng := tensor.NewRNG(30)
	g := NewGELU()
	x := tensor.Randn(rng, 3, 4)
	r := tensor.Randn(rng, 3, 4)
	loss := func() float64 { return dotAll(g.Forward(x), r) }
	loss()
	dx := g.Backward(r)
	checkGrad(t, "gelu/x", x, dx, loss, 1e-6)
}

func TestSelfAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(40)
	a := NewSelfAttention("attn", 8, 2, 41)
	x := tensor.Randn(rng, 2, 3, 8)
	r := tensor.Randn(rng, 2, 3, 8)
	loss := func() float64 { return dotAll(a.Forward(x), r) }
	loss()
	ZeroGrads(a.Params())
	dx := a.Backward(r)
	checkGrad(t, "selfattn/x", x, dx, loss, 1e-5)
	checkGrad(t, "selfattn/Wq", a.Wq.Weight.W, a.Wq.Weight.Grad, loss, 1e-5)
	checkGrad(t, "selfattn/Wo", a.Wo.Weight.W, a.Wo.Weight.Grad, loss, 1e-5)
}

func TestCrossAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(50)
	a := NewCrossAttention("xattn", 8, 2, 51)
	q := tensor.Randn(rng, 2, 2, 8)
	kv := tensor.Randn(rng, 2, 5, 8)
	r := tensor.Randn(rng, 2, 8)
	loss := func() float64 { return dotAll(a.ForwardPooled(q, kv), r) }
	loss()
	ZeroGrads(a.Params())
	dq, dkv := a.BackwardPooled(r)
	checkGrad(t, "xattn/q", q, dq, loss, 1e-5)
	checkGrad(t, "xattn/kv", kv, dkv, loss, 1e-5)
	checkGrad(t, "xattn/Wq", a.Wq.Weight.W, a.Wq.Weight.Grad, loss, 1e-5)
	checkGrad(t, "xattn/Wk", a.Wk.Weight.W, a.Wk.Weight.Grad, loss, 1e-5)
	checkGrad(t, "xattn/Wv", a.Wv.Weight.W, a.Wv.Weight.Grad, loss, 1e-5)
	checkGrad(t, "xattn/Wo", a.Wo.Weight.W, a.Wo.Weight.Grad, loss, 1e-5)
}

func TestMLPGradients(t *testing.T) {
	rng := tensor.NewRNG(60)
	m := NewMLP("mlp", 4, 8, 61)
	x := tensor.Randn(rng, 3, 4)
	r := tensor.Randn(rng, 3, 4)
	loss := func() float64 { return dotAll(m.Forward(x), r) }
	loss()
	ZeroGrads(m.Params())
	dx := m.Backward(r)
	checkGrad(t, "mlp/x", x, dx, loss, 1e-5)
	checkGrad(t, "mlp/fc1", m.Fc1.Weight.W, m.Fc1.Weight.Grad, loss, 1e-5)
	checkGrad(t, "mlp/fc2", m.Fc2.Weight.W, m.Fc2.Weight.Grad, loss, 1e-5)
}

func TestTransformerBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(70)
	b := NewTransformerBlock("blk", 8, 2, 71)
	x := tensor.Randn(rng, 2, 3, 8)
	r := tensor.Randn(rng, 2, 3, 8)
	loss := func() float64 { return dotAll(b.Forward(x), r) }
	loss()
	ZeroGrads(b.Params())
	dx := b.Backward(r)
	checkGrad(t, "block/x", x, dx, loss, 1e-4)
}

func TestPatchEmbedGradients(t *testing.T) {
	rng := tensor.NewRNG(80)
	p := NewPatchEmbed("tok", 3, 4, 4, 2, 5, 81)
	x := tensor.Randn(rng, 2, 3, 4, 4)
	r := tensor.Randn(rng, 2, 3, 4, 5) // T = (4/2)*(4/2) = 4 tokens
	loss := func() float64 { return dotAll(p.Forward(x), r) }
	loss()
	ZeroGrads(p.Params())
	dx := p.Backward(r)
	checkGrad(t, "patchembed/x", x, dx, loss, 1e-6)
	checkGrad(t, "patchembed/W", p.Weight.W, p.Weight.Grad, loss, 1e-6)
	checkGrad(t, "patchembed/b", p.Bias.W, p.Bias.Grad, loss, 1e-6)
}

func TestPosEmbedGradients(t *testing.T) {
	rng := tensor.NewRNG(90)
	p := NewPosEmbed("pos", 4, 3, 91)
	x := tensor.Randn(rng, 2, 4, 3)
	r := tensor.Randn(rng, 2, 4, 3)
	loss := func() float64 { return dotAll(p.Forward(x), r) }
	loss()
	ZeroGrads(p.Params())
	dx := p.Backward(r)
	checkGrad(t, "posembed/x", x, dx, loss, 1e-6)
	checkGrad(t, "posembed/table", p.Table.W, p.Table.Grad, loss, 1e-6)
}

// TestChannelEmbedGradients checks the channel-ID table through the pass that
// applies it: the tokenizer adds row c on the way out and sums its gradient
// on the way back.
func TestChannelEmbedGradients(t *testing.T) {
	rng := tensor.NewRNG(100)
	p := NewPatchEmbed("tok", 3, 4, 4, 2, 4, 99)
	c := NewChannelEmbed("ch", 3, 4, 101)
	x := tensor.Randn(rng, 2, 3, 4, 4)
	r := tensor.Randn(rng, 2, 3, 4, 4)
	out := tensor.New(2, 3, 4, 4)
	loss := func() float64 {
		p.Tokenize(x, ChannelViews(nil, out), c, false)
		return dotAll(out, r)
	}
	loss()
	ZeroGrads(append(p.Params(), c.Params()...))
	dx := p.BackwardFrom(ChannelViews(nil, r), c)
	checkGrad(t, "chembed/x", x, dx, loss, 1e-6)
	checkGrad(t, "chembed/table", c.Table.W, c.Table.Grad, loss, 1e-6)
	checkGrad(t, "chembed/bias", p.Bias.W, p.Bias.Grad, loss, 1e-6)
}

func TestMetaTokenGradients(t *testing.T) {
	rng := tensor.NewRNG(110)
	m := NewMetaToken("meta", 2, 3, 111)
	x := tensor.Randn(rng, 2, 4, 3)
	r := tensor.Randn(rng, 2, 6, 3)
	loss := func() float64 { return dotAll(m.Forward(x), r) }
	loss()
	ZeroGrads(m.Params())
	dx := m.Backward(r)
	checkGrad(t, "metatoken/x", x, dx, loss, 1e-6)
	checkGrad(t, "metatoken/table", m.Table.W, m.Table.Grad, loss, 1e-6)
}

func TestMSELossGradients(t *testing.T) {
	rng := tensor.NewRNG(120)
	l := NewMSELoss()
	pred := tensor.Randn(rng, 2, 3)
	target := tensor.Randn(rng, 2, 3)
	loss := func() float64 { return l.Forward(pred, target) }
	loss()
	g := l.Backward()
	checkGrad(t, "mse/pred", pred, g, loss, 1e-6)
}

func TestMaskedMSELossGradients(t *testing.T) {
	rng := tensor.NewRNG(130)
	l := NewMaskedMSELoss()
	pred := tensor.Randn(rng, 2, 4, 3)
	target := tensor.Randn(rng, 2, 4, 3)
	mask := tensor.FromSlice([]float64{1, 0, 1, 1, 0, 1, 0, 0}, 2, 4)
	loss := func() float64 { return l.Forward(pred, target, mask) }
	loss()
	g := l.Backward()
	checkGrad(t, "maskedmse/pred", pred, g, loss, 1e-6)
}
