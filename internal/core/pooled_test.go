package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// explicitAggregation is the channel aggregation written out the way the
// paper states it and the way the aggregators computed it before the mean
// moved inside the attention: four explicit projections, a per-head softmax
// map, the full [N,Tq,E] context and output, and a mean over the Tq output
// tokens last; backward broadcasts the mean's gradient over the tokens and
// walks the same steps in reverse. It shares nothing with nn.AttentionCore.
type explicitAggregation struct {
	out, dQuery, dContext *tensor.Tensor
	grads                 []*tensor.Tensor // wq.W, wq.b, wk.W, wk.b, wv.W, wv.b, wo.W, wo.b
}

func explicitAggregate(a *nn.CrossAttention, query, context, d *tensor.Tensor) explicitAggregation {
	n, tq, tk, e := query.Shape[0], query.Shape[1], context.Shape[1], a.Embed
	h, dh := a.Heads, a.Embed/a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	affine := func(x *tensor.Tensor, l *nn.Linear) *tensor.Tensor {
		y := tensor.MatMulInto(nil, x.Reshape(-1, e), l.Weight.W)
		for r := 0; r < y.Shape[0]; r++ {
			for j := 0; j < e; j++ {
				y.Data[r*e+j] += l.Bias.W.Data[j]
			}
		}
		return y
	}
	q, k, v := affine(query, a.Wq), affine(context, a.Wk), affine(context, a.Wv) // [N*T, E]
	at := func(x *tensor.Tensor, t, ni, ti, hi, di int) *float64 { return &x.Data[(ni*t+ti)*e+hi*dh+di] }

	p := tensor.New(n, h, tq, tk)
	ctx := tensor.New(n*tq, e)
	for ni := 0; ni < n; ni++ {
		for hi := 0; hi < h; hi++ {
			s := tensor.New(tq, tk)
			for i := 0; i < tq; i++ {
				for j := 0; j < tk; j++ {
					for di := 0; di < dh; di++ {
						s.Data[i*tk+j] += *at(q, tq, ni, i, hi, di) * *at(k, tk, ni, j, hi, di)
					}
					s.Data[i*tk+j] *= scale
				}
			}
			ph := tensor.SoftmaxLastDimInto(nil, s)
			copy(p.Data[(ni*h+hi)*tq*tk:], ph.Data)
			for i := 0; i < tq; i++ {
				for j := 0; j < tk; j++ {
					for di := 0; di < dh; di++ {
						*at(ctx, tq, ni, i, hi, di) += ph.Data[i*tk+j] * *at(v, tk, ni, j, hi, di)
					}
				}
			}
		}
	}
	y := affine(ctx, a.Wo) // [N*Tq, E]
	out := tensor.ScaleInto(nil, tensor.SumAxisInto(nil, y.Reshape(n, tq, e), 1), 1/float64(tq))

	dy := tensor.New(n*tq, e)
	for ni := 0; ni < n; ni++ {
		for i := 0; i < tq; i++ {
			for j := 0; j < e; j++ {
				dy.Data[(ni*tq+i)*e+j] = d.Data[ni*e+j] / float64(tq)
			}
		}
	}
	dctx := tensor.MatMulTInto(nil, dy, a.Wo.Weight.W)
	dq, dk, dv := tensor.New(n*tq, e), tensor.New(n*tk, e), tensor.New(n*tk, e)
	for ni := 0; ni < n; ni++ {
		for hi := 0; hi < h; hi++ {
			ph := p.Data[(ni*h+hi)*tq*tk:][:tq*tk]
			for i := 0; i < tq; i++ {
				dp := make([]float64, tk)
				dot := 0.0
				for j := 0; j < tk; j++ {
					for di := 0; di < dh; di++ {
						g := *at(dctx, tq, ni, i, hi, di)
						dp[j] += g * *at(v, tk, ni, j, hi, di)
						*at(dv, tk, ni, j, hi, di) += ph[i*tk+j] * g
					}
					dot += dp[j] * ph[i*tk+j]
				}
				for j := 0; j < tk; j++ {
					ds := ph[i*tk+j] * (dp[j] - dot) * scale
					for di := 0; di < dh; di++ {
						*at(dq, tq, ni, i, hi, di) += ds * *at(k, tk, ni, j, hi, di)
						*at(dk, tk, ni, j, hi, di) += ds * *at(q, tq, ni, i, hi, di)
					}
				}
			}
		}
	}
	res := explicitAggregation{out: out}
	back := func(x, g *tensor.Tensor, l *nn.Linear) *tensor.Tensor {
		res.grads = append(res.grads, tensor.TMatMulInto(nil, x.Reshape(-1, e), g), tensor.SumAxisInto(nil, g, 0))
		return tensor.MatMulTInto(nil, g, l.Weight.W)
	}
	res.dQuery = back(query, dq, a.Wq).Reshape(n, tq, e)
	res.dContext = back(context, dk, a.Wk).Reshape(n, tk, e)
	tensor.AddInto(res.dContext, res.dContext, back(context, dv, a.Wv).Reshape(n, tk, e))
	back(ctx, dy, a.Wo)
	return res
}

// mustMatch fails unless got equals want to 1e-12.
func mustMatch(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s shape %v, want %v", name, got.Shape, want.Shape)
	}
	if d := tensor.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("%s differs from the explicit softmax-then-mean formulation by %g", name, d)
	}
}

// TestCrossAttnAggregatorMatchesExplicitFormulation pins the pooled
// aggregator against the explicit projections + softmax + mean formulation:
// output, input gradient and all eight parameter gradients to 1e-12, at the
// partial-aggregation and the final-layer shape.
func TestCrossAttnAggregatorMatchesExplicitFormulation(t *testing.T) {
	for _, sh := range []struct{ n, g, e, heads int }{{5, 16, 32, 4}, {7, 4, 64, 4}, {3, 1, 8, 2}} {
		rng := tensor.NewRNG(int64(300 + sh.g))
		a := NewCrossAttnAggregator("agg", sh.g, sh.e, sh.heads, 17)
		x := tensor.Randn(rng, sh.n, sh.g, sh.e)
		d := tensor.Randn(rng, sh.n, sh.e)
		want := explicitAggregate(a.Attn, x, x, d)

		nn.ZeroGrads(a.Params())
		mustMatch(t, "output", a.Forward(x), want.out)
		mustMatch(t, "dx", rowMajor(a.Backward(d)), tensor.AddInto(nil, want.dQuery, want.dContext))
		for i, p := range a.Params() {
			mustMatch(t, p.Name, p.Grad, want.grads[i])
		}
	}
}

func TestCrossAttnAggregatorBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCrossAttnAggregator("a", 2, 4, 2, 1).Backward(tensor.New(1, 4))
}

// product is one matrix product of a location, [m,k]@[k,n]: m*k*n
// multiply-accumulates forward, and on the way back its two gradients,
// [m,n]@[n,k] and [k,m]@[m,n], as many again each.
type product struct{ m, k, n int }

// aggregationProducts lists the matrix products one location of a
// cross-attention aggregation over g tokens issues (softmax, the pooling adds
// and the bias adds are not products). Both formulations project Q, K and V
// (g rows through each of the layer's weights) and form a g x g map per
// head. Unpooled, the value product and Wo run on all g output tokens and
// the mean over them is taken last; pooled, as the layer runs it, the mean is
// taken on the map, so both run on one token.
func aggregationProducts(a *nn.CrossAttention, g int, pooled bool) []product {
	dh, rows := a.Embed/a.Heads, g
	if pooled {
		rows = 1
	}
	var ps []product
	for _, l := range []*nn.Linear{a.Wq, a.Wk, a.Wv} {
		ps = append(ps, product{g, l.In, l.Out})
	}
	for range a.Heads {
		ps = append(ps, product{g, dh, g}, product{rows, g, dh})
	}
	return append(ps, product{rows, a.Wo.In, a.Wo.Out})
}

// aggregationMACs counts the forward and backward multiply-accumulates of a
// list of products.
func aggregationMACs(ps []product) (fwd, bwd int) {
	for _, p := range ps {
		fwd += p.m * p.k * p.n
		bwd += p.m*p.n*p.k + p.k*p.m*p.n
	}
	return fwd, bwd
}

// TestPooledAggregationMACs pins the work the pooled formulation saves per
// location, at the aggregation shapes of the benchmark workloads: at the hsi
// partial layer (g = 16, E = 32) 58 880 forward multiply-accumulates against
// the unpooled 81 920, at most three quarters; at the final layers (g = 4)
// about a fifth less; backward exactly twice forward in both formulations.
func TestPooledAggregationMACs(t *testing.T) {
	for _, tc := range []struct {
		g, e   int
		lo, hi float64 // bounds on pooled / unpooled
	}{{16, 32, 0, 0.75}, {4, 32, 0.78, 0.82}, {4, 64, 0.78, 0.82}} {
		a := NewCrossAttnAggregator("a", tc.g, tc.e, 4, 1).Attn
		pf, pb := aggregationMACs(aggregationProducts(a, tc.g, true))
		uf, ub := aggregationMACs(aggregationProducts(a, tc.g, false))
		if pb != 2*pf || ub != 2*uf {
			t.Fatalf("g=%d E=%d: backward MACs pooled %d, unpooled %d; want twice forward, %d and %d", tc.g, tc.e, pb, ub, 2*pf, 2*uf)
		}
		if r := float64(pf) / float64(uf); r < tc.lo || r > tc.hi {
			t.Fatalf("g=%d E=%d: pooled %d / unpooled %d forward MACs = %.3f, want within [%.2f, %.2f]", tc.g, tc.e, pf, uf, r, tc.lo, tc.hi)
		}
		if tc.g == 16 && (pf != 58880 || uf != 81920) {
			t.Fatalf("g=16 E=%d: forward MACs pooled %d, unpooled %d; want 58880, 81920", tc.e, pf, uf)
		}
	}
}

// TestAggregatorsSteadyStateAllocs pins the layer-owned-scratch contract
// through the attention aggregator — four projections, the pooled product
// and the workspace they borrow: a warm forward, backward and eval pass
// allocates nothing.
func TestAggregatorsSteadyStateAllocs(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 8, 16, 32)
	d := tensor.Randn(rng, 8, 32)
	for name, a := range map[string]GroupAggregator{
		"cross": NewCrossAttnAggregator("a", 16, 32, 4, 1),
	} {
		var ws workspace
		step := func() {
			a.Forward(x)
			a.backward(d, &ws)
			a.Infer(x)
		}
		step()
		if n := testing.AllocsPerRun(10, step); n != 0 {
			t.Fatalf("%s aggregator allocates %.1f times per step in steady state", name, n)
		}
	}
}

// BenchmarkCrossAttnAggregator times Forward and Backward separately at the
// aggregation shapes of the benchmark workloads (128 locations): the hsi
// partial layer (16 channel tokens, embed 32), the hsi final layer (4
// partition tokens) and the weather final layer (embed 64). The backward
// consumes its forward's Q/K/V, so each bwd iteration runs the forward
// first, untimed.
func BenchmarkCrossAttnAggregator(b *testing.B) {
	for _, sh := range []struct{ g, e int }{{16, 32}, {4, 32}, {4, 64}} {
		rng := tensor.NewRNG(6)
		a := NewCrossAttnAggregator("a", sh.g, sh.e, 4, 1)
		x := tensor.Randn(rng, 128, sh.g, sh.e)
		d := tensor.Randn(rng, 128, sh.e)
		fwd := func() { a.Forward(x) }
		for _, dir := range []struct {
			name       string
			prep, step func()
		}{{"fwd", nil, fwd}, {"bwd", fwd, func() { a.Backward(d) }}} {
			b.Run(fmt.Sprintf("g%d_e%d/%s", sh.g, sh.e, dir.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if dir.prep != nil {
						b.StopTimer()
						dir.prep()
						b.StartTimer()
					}
					dir.step()
				}
			})
		}
	}
}
