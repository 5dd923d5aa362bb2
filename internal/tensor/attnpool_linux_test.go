package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// oracleCore is the composition the pooled attention pass replaced, kept as
// its oracle: nn.AttentionCore's weights, pool, BackwardPooled and scoreGrads
// as they were, receiver fields and package prefixes aside — the score
// product and the softmax over the whole [N,H,Tq,Tk] map, then the pooling
// loops, then the backward loops into a [N,H,Tq,Tk] dA and the two batched
// gradient products.
type oracleCore struct {
	Heads, HeadDim int

	q, k, v     *Tensor
	attn, pbar  *Tensor
	dA, dq, dk  *Tensor
	dv, dpbar   *Tensor
	ictx, iattn *Tensor
}

func (c *oracleCore) weights(p, q, k *Tensor, dt DType) *Tensor {
	p = EnsureShape(p, q.Shape[0], c.Heads, q.Shape[1], k.Shape[1])
	scoreProduct := BatchedMatMulTInto
	if dt == F32 {
		scoreProduct = BatchedMatMulTF32Into
	}
	scoreProduct(MatView(p), HeadView(q, c.Heads), HeadView(k, c.Heads), 1/math.Sqrt(float64(c.HeadDim)))
	return SoftmaxLastDimInto(p, p)
}

func (c *oracleCore) pool(pbar, cbar, p, v *Tensor) {
	n, tq, tk := p.Shape[0], p.Shape[2], p.Shape[3]
	h, dh := c.Heads, c.HeadDim
	e := h * dh
	inv := 1 / float64(tq)
	for ni := 0; ni < n; ni++ {
		pn := pbar.Data[ni*h*tk : (ni+1)*h*tk]
		for hi := 0; hi < h; hi++ {
			ph := p.Data[(ni*h+hi)*tq*tk : (ni*h+hi+1)*tq*tk]
			pb := pn[hi*tk : (hi+1)*tk]
			copy(pb, ph[:tk])
			for i := 1; i < tq; i++ {
				for j, w := range ph[i*tk : (i+1)*tk] {
					pb[j] += w
				}
			}
			for j := range pb {
				pb[j] *= inv
			}
		}
		crow := cbar.Data[ni*e : (ni+1)*e]
		clear(crow)
		for j := 0; j < tk; j++ {
			vrow := v.Data[(ni*tk+j)*e : (ni*tk+j+1)*e]
			for hi := 0; hi < h; hi++ {
				w := pn[hi*tk+j]
				ch := crow[hi*dh : (hi+1)*dh]
				for d, x := range vrow[hi*dh : (hi+1)*dh] {
					ch[d] += w * x
				}
			}
		}
	}
}

// forward is ForwardPooled (dt F64) and InferPooled (dt F32) as they were.
func (c *oracleCore) forward(q, k, v *Tensor, dt DType) (ctx, pbar, attn *Tensor) {
	c.q, c.k, c.v = q, k, v
	c.attn = c.weights(c.attn, q, k, dt)
	c.pbar = EnsureShape(c.pbar, q.Shape[0], c.Heads, k.Shape[1])
	c.ictx = EnsureShape(c.ictx, q.Shape[0], q.Shape[2])
	c.pool(c.pbar, c.ictx, c.attn, v)
	return c.ictx, c.pbar, c.attn
}

func (c *oracleCore) BackwardPooled(dcbar *Tensor) (dq, dk, dv *Tensor) {
	n, tq, tk := c.q.Shape[0], c.q.Shape[1], c.k.Shape[1]
	h, dh := c.Heads, c.HeadDim
	e := h * dh
	c.dA = EnsureShape(c.dA, c.attn.Shape...)
	c.dv = EnsureShape(c.dv, c.v.Shape...)
	c.dpbar = EnsureShape(c.dpbar, h, tk)
	inv := 1 / float64(tq)
	for ni := 0; ni < n; ni++ {
		dc := dcbar.Data[ni*e : (ni+1)*e]
		pn := c.pbar.Data[ni*h*tk : (ni+1)*h*tk]
		for j := 0; j < tk; j++ {
			vrow := c.v.Data[(ni*tk+j)*e : (ni*tk+j+1)*e]
			dvrow := c.dv.Data[(ni*tk+j)*e : (ni*tk+j+1)*e]
			for hi := 0; hi < h; hi++ {
				w := pn[hi*tk+j]
				vh, dvh := vrow[hi*dh:(hi+1)*dh], dvrow[hi*dh:(hi+1)*dh]
				s := 0.0
				for d, g := range dc[hi*dh : (hi+1)*dh] {
					dvh[d] = w * g
					s += g * vh[d]
				}
				c.dpbar.Data[hi*tk+j] = s * inv
			}
		}
		for hi := 0; hi < h; hi++ {
			gy := c.dpbar.Data[hi*tk : (hi+1)*tk]
			p := c.attn.Data[(ni*h+hi)*tq*tk : (ni*h+hi+1)*tq*tk]
			ds := c.dA.Data[(ni*h+hi)*tq*tk : (ni*h+hi+1)*tq*tk]
			for i := 0; i < tq; i++ {
				pr, dr := p[i*tk:(i+1)*tk], ds[i*tk:(i+1)*tk]
				dot := 0.0
				for j, w := range pr {
					dot += w * gy[j]
				}
				for j, w := range pr {
					dr[j] = w * (gy[j] - dot)
				}
			}
		}
	}
	return c.scoreGrads()
}

func (c *oracleCore) scoreGrads() (dq, dk, dv *Tensor) {
	scale := 1 / math.Sqrt(float64(c.HeadDim))
	dS := MatView(c.dA)
	c.dq = EnsureShape(c.dq, c.q.Shape...)
	BatchedMatMulInto(HeadView(c.dq, c.Heads), dS, HeadView(c.k, c.Heads), scale)
	c.dk = EnsureShape(c.dk, c.k.Shape...)
	BatchedTMatMulInto(HeadView(c.dk, c.Heads), dS, HeadView(c.q, c.Heads), scale, nil)
	return c.dq, c.dk, c.dv
}

// sameBits fails unless got and want agree bit for bit, any NaN matching any
// NaN (which NaN an operation propagates is the hardware's business).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// pooledOperands are one case's tensors, each flush against a guard page.
type pooledOperands struct {
	q, k, v, dc               *Tensor // inputs
	cbar, pbar, p, dq, dk, dv *Tensor // outputs
}

// placePooled lays out one case's tensors in the arenas, all ending flush
// against the guard page above (atEnd) or starting right after the one
// below, the inputs drawn from rng and the outputs poisoned with NaN.
func placePooled(arenas []*guardedArena, rng *rand.Rand, n, h, tq, tk, dh int, atEnd bool) pooledOperands {
	e := h * dh
	shapes := [][]int{{n, tq, e}, {n, tk, e}, {n, tk, e}, {n, e}, {n, e}, {n, h, tk}, {n, h, tq, tk}, {n, tq, e}, {n, tk, e}, {n, tk, e}}
	ts := make([]*Tensor, len(shapes))
	for i, sh := range shapes {
		size := 1
		for _, d := range sh {
			size *= d
		}
		ts[i] = FromSlice(arenas[i].place(size, atEnd), sh...)
		for j := range ts[i].Data {
			if i < 4 {
				ts[i].Data[j] = rng.NormFloat64()
			} else {
				ts[i].Data[j] = math.NaN()
			}
		}
	}
	return pooledOperands{q: ts[0], k: ts[1], v: ts[2], dc: ts[3], cbar: ts[4], pbar: ts[5], p: ts[6], dq: ts[7], dk: ts[8], dv: ts[9]}
}

func poison(ts ...*Tensor) {
	for _, t := range ts {
		for i := range t.Data {
			t.Data[i] = math.NaN()
		}
	}
}

// TestPooledAttentionBitwise holds the pooled attention pass to the
// composition it replaced (oracleCore) bit for bit, under every kernel tier
// (assembly and Go twin: Dh 1 and 2 take the twin on every tier), over Tq, Tk
// across the vector widths, Dh, H and N: the forward with the map written
// for the backward and without it, float32 inference (the pass starting at
// the softmax of BatchedMatMulTF32Into's scores), and the backward run twice
// per forward. Every operand sits flush against an inaccessible page, at its
// end or its start, so a read or write past it faults; every output starts
// as NaN, so an element left unwritten shows.
func TestPooledAttentionBitwise(t *testing.T) {
	const arenaElems = 3 * 4 * 17 * 17 // the largest operand: the map at N 3, H 4, Tq = Tk = 17
	arenas := make([]*guardedArena, 10)
	for i := range arenas {
		arenas[i] = newGuardedArena(t, arenaElems)
	}
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17}
	withEveryTier(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		cases := 0
		for _, dh := range []int{1, 2, 4, 8, 16} {
			for _, h := range []int{1, 2, 4} {
				for _, n := range []int{1, 3} {
					for _, tq := range sizes {
						for _, tk := range sizes {
							cases++
							name := fmt.Sprintf("N=%d H=%d Tq=%d Tk=%d Dh=%d kernel=%s", n, h, tq, tk, dh, KernelTier())
							rng := NewRNG(int64(cases))
							o := placePooled(arenas, rng, n, h, tq, tk, dh, cases%2 == 0)
							checkPooledCase(t, name, o, h, dh)
						}
					}
				}
			}
		}
	})
}

// checkPooledCase runs every entry of the pass on o and compares it with the
// oracle.
func checkPooledCase(t *testing.T, name string, o pooledOperands, h, dh int) {
	t.Helper()
	alpha := 1 / math.Sqrt(float64(dh))
	qv, kv, vv := HeadView(o.q, h), HeadView(o.k, h), HeadView(o.v, h)
	ref := oracleCore{Heads: h, HeadDim: dh}
	wantCtx, wantPbar, wantMap := ref.forward(o.q, o.k, o.v, F64)
	wantDq, wantDk, wantDv := ref.BackwardPooled(o.dc)

	PooledAttention(o.cbar, o.pbar, nil, qv, kv, vv, alpha, false)
	sameBits(t, name+" infer cbar", o.cbar.Data, wantCtx.Data)
	sameBits(t, name+" infer pbar", o.pbar.Data, wantPbar.Data)
	poison(o.cbar, o.pbar)

	PooledAttention(o.cbar, o.pbar, o.p, qv, kv, vv, alpha, false)
	sameBits(t, name+" cbar", o.cbar.Data, wantCtx.Data)
	sameBits(t, name+" pbar", o.pbar.Data, wantPbar.Data)
	sameBits(t, name+" map", o.p.Data, wantMap.Data)
	for run := 1; run <= 2; run++ {
		poison(o.dq, o.dk, o.dv)
		PooledAttentionBackward(HeadView(o.dq, h), HeadView(o.dk, h), HeadView(o.dv, h), o.dc, o.pbar, o.p, qv, kv, vv, alpha)
		sameBits(t, fmt.Sprintf("%s backward %d dq", name, run), o.dq.Data, wantDq.Data)
		sameBits(t, fmt.Sprintf("%s backward %d dk", name, run), o.dk.Data, wantDk.Data)
		sameBits(t, fmt.Sprintf("%s backward %d dv", name, run), o.dv.Data, wantDv.Data)
	}

	wantCtx, wantPbar, _ = ref.forward(o.q, o.k, o.v, F32)
	poison(o.cbar, o.pbar)
	BatchedMatMulTF32Into(MatView(o.p), qv, kv, alpha)
	PooledAttention(o.cbar, o.pbar, o.p, qv, kv, vv, alpha, true)
	sameBits(t, name+" f32 cbar", o.cbar.Data, wantCtx.Data)
	sameBits(t, name+" f32 pbar", o.pbar.Data, wantPbar.Data)
}

// TestPooledAttentionEdgeRows mirrors TestSoftmaxEdgeRows through the pass:
// score rows holding ±Inf, NaN, all-equal values, ±0 and magnitudes past
// 700, written straight into the map for the scored entry, and the same
// kinds of rows produced by the score product from extreme q and k, under
// every tier and both spellings (Dh 1 runs the Go twin, Dh 4 and 8 the
// assembly where the tier has it), against the oracle.
func TestPooledAttentionEdgeRows(t *testing.T) {
	rows := [][]float64{
		{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0},
		{math.Inf(1), 1, 2, 3, 4},
		{math.Inf(-1), 1, 2, math.Inf(-1), 4},
		{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)},
		{math.NaN(), 1, 2, 3, 4},
		{1, 2, math.NaN(), 3, 4},
		{-3.25, -3.25, -3.25, -3.25, -3.25},
		{750, 0, -750, 1e4, -1e4},
		{-701, -702, -703, -704, -705},
		{709.5, 709.5, 0, 1, 2},
	}
	special := []float64{0, math.Copysign(0, -1), 1, -1, 800, -800, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300}
	withEveryTier(t, func(t *testing.T) {
		for _, dh := range []int{1, 4, 8} {
			for _, h := range []int{1, 2} {
				const n, tk = 2, 5
				tq := len(rows)
				e := h * dh
				rng := NewRNG(int64(dh + h))
				q, k, v := Randn(rng, n, tq, e), Randn(rng, n, tk, e), Randn(rng, n, tk, e)
				qv, kv, vv := HeadView(q, h), HeadView(k, h), HeadView(v, h)
				name := fmt.Sprintf("H=%d Dh=%d kernel=%s", h, dh, KernelTier())

				// Scored: the rows go into the map as they are.
				scores := New(n, h, tq, tk)
				for r := 0; r < n*h; r++ {
					for i, row := range rows {
						copy(scores.Data[(r*tq+i)*tk:], row)
					}
				}
				want := oracleCore{Heads: h, HeadDim: dh}
				wantMap := SoftmaxLastDimInto(nil, scores)
				wantPbar, wantCtx := New(n, h, tk), New(n, e)
				want.pool(wantPbar, wantCtx, wantMap, v)
				cbar, pbar, p := New(n, e), New(n, h, tk), scores.Clone()
				PooledAttention(cbar, pbar, p, qv, kv, vv, 1/math.Sqrt(float64(dh)), true)
				sameBits(t, name+" scored map", p.Data, wantMap.Data)
				sameBits(t, name+" scored pbar", pbar.Data, wantPbar.Data)
				sameBits(t, name+" scored cbar", cbar.Data, wantCtx.Data)

				// Through the score product: extreme q against extreme k.
				for i := range q.Data {
					q.Data[i] = special[i%len(special)]
				}
				for i := range k.Data {
					k.Data[i] = special[(3*i+1)%len(special)]
				}
				d := Randn(rng, n, e)
				ref := oracleCore{Heads: h, HeadDim: dh}
				wc, wp, wm := ref.forward(q, k, v, F64)
				wdq, wdk, wdv := ref.BackwardPooled(d)
				o := pooledOperands{q: q, k: k, v: v, dc: d, cbar: New(n, e), pbar: New(n, h, tk), p: New(n, h, tq, tk), dq: New(n, tq, e), dk: New(n, tk, e), dv: New(n, tk, e)}
				PooledAttention(o.cbar, o.pbar, o.p, qv, kv, vv, 1/math.Sqrt(float64(dh)), false)
				sameBits(t, name+" extreme map", o.p.Data, wm.Data)
				sameBits(t, name+" extreme pbar", o.pbar.Data, wp.Data)
				sameBits(t, name+" extreme cbar", o.cbar.Data, wc.Data)
				PooledAttentionBackward(HeadView(o.dq, h), HeadView(o.dk, h), HeadView(o.dv, h), d, o.pbar, o.p, qv, kv, vv, 1/math.Sqrt(float64(dh)))
				sameBits(t, name+" extreme dq", o.dq.Data, wdq.Data)
				sameBits(t, name+" extreme dk", o.dk.Data, wdk.Data)
				sameBits(t, name+" extreme dv", o.dv.Data, wdv.Data)
			}
		}
	})
}

// TestPooledAttentionAllocs pins both entries, every forward mode, at zero
// heap allocations per call under every tier.
func TestPooledAttentionAllocs(t *testing.T) {
	const n, h, g, dh = 8, 4, 16, 8
	rng := NewRNG(11)
	q, k, v, d := Randn(rng, n, g, h*dh), Randn(rng, n, g, h*dh), Randn(rng, n, g, h*dh), Randn(rng, n, h*dh)
	cbar, pbar, p := New(n, h*dh), New(n, h, g), New(n, h, g, g)
	dq, dk, dv := New(n, g, h*dh), New(n, g, h*dh), New(n, g, h*dh)
	qv, kv, vv := HeadView(q, h), HeadView(k, h), HeadView(v, h)
	withEveryTier(t, func(t *testing.T) {
		for name, step := range map[string]func(){
			"forward": func() { PooledAttention(cbar, pbar, p, qv, kv, vv, 0.35, false) },
			"infer":   func() { PooledAttention(cbar, pbar, nil, qv, kv, vv, 0.35, false) },
			"scored":  func() { PooledAttention(cbar, pbar, p, qv, kv, vv, 0.35, true) },
			"backward": func() {
				PooledAttentionBackward(HeadView(dq, h), HeadView(dk, h), HeadView(dv, h), d, pbar, p, qv, kv, vv, 0.35)
			},
		} {
			step()
			if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
				t.Fatalf("%s allocates %.1f times per call", name, allocs)
			}
		}
	})
}

// TestPooledAttentionBackwardInPlace holds the backward written over its
// operands (dq, dk and dv the very views q, k and v) to the same pass into
// separate buffers, bit for bit, under every kernel tier: Tk 4, 16 and 20,
// Tq unlike Tk, Dh on the assembly (4, 8) and on the Go twin (2), and N
// large enough that the pass splits its locations across goroutines.
func TestPooledAttentionBackwardInPlace(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		cases := 0
		for _, dh := range []int{2, 4, 8} {
			for _, h := range []int{1, 3} {
				for _, s := range []struct{ n, tq, tk int }{{3, 4, 4}, {2, 16, 16}, {2, 20, 20}, {3, 5, 20}, {2, 16, 4}, {96, 16, 16}} {
					cases++
					name := fmt.Sprintf("N=%d H=%d Tq=%d Tk=%d Dh=%d kernel=%s", s.n, h, s.tq, s.tk, dh, KernelTier())
					e, alpha := h*dh, 1/math.Sqrt(float64(dh))
					rng := NewRNG(int64(cases))
					q, k, v, d := Randn(rng, s.n, s.tq, e), Randn(rng, s.n, s.tk, e), Randn(rng, s.n, s.tk, e), Randn(rng, s.n, e)
					qv, kv, vv := HeadView(q, h), HeadView(k, h), HeadView(v, h)
					cbar, pbar, p := New(s.n, e), New(s.n, h, s.tk), New(s.n, h, s.tq, s.tk)
					PooledAttention(cbar, pbar, p, qv, kv, vv, alpha, false)
					dq, dk, dv := New(s.n, s.tq, e), New(s.n, s.tk, e), New(s.n, s.tk, e)
					PooledAttentionBackward(HeadView(dq, h), HeadView(dk, h), HeadView(dv, h), d, pbar, p, qv, kv, vv, alpha)
					PooledAttentionBackward(qv, kv, vv, d, pbar, p, qv, kv, vv, alpha)
					sameBits(t, name+" dq", q.Data, dq.Data)
					sameBits(t, name+" dk", k.Data, dk.Data)
					sameBits(t, name+" dv", v.Data, dv.Data)
				}
			}
		}
	})
}

// TestPooledAttentionBackwardInPlacePartialAliasPanics: a gradient may be its
// own operand exactly, and nothing else may overlap an operand — a gradient
// shifted by one row over its operand, or one that is another operand.
func TestPooledAttentionBackwardInPlacePartialAliasPanics(t *testing.T) {
	const n, h, tq, dh = 2, 2, 4, 4
	e := h * dh
	rng := NewRNG(5)
	buf := Randn(rng, n*tq*e+e)
	q := &Tensor{Data: buf.Data[:n*tq*e], Shape: []int{n, tq, e}}
	shifted := &Tensor{Data: buf.Data[e:], Shape: []int{n, tq, e}}
	k, v, d := Randn(rng, n, tq, e), Randn(rng, n, tq, e), Randn(rng, n, e)
	qv, kv, vv := HeadView(q, h), HeadView(k, h), HeadView(v, h)
	cbar, pbar, p := New(n, e), New(n, h, tq), New(n, h, tq, tq)
	PooledAttention(cbar, pbar, p, qv, kv, vv, 0.5, false)
	for name, grads := range map[string][3]View{
		"dq shifted over q": {HeadView(shifted, h), kv, vv},
		"dq is k":           {kv, HeadView(New(n, tq, e), h), vv},
		"dv is the map":     {qv, kv, HeadView(&Tensor{Data: p.Data[:n*tq*e], Shape: []int{n, tq, e}}, h)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			PooledAttentionBackward(grads[0], grads[1], grads[2], d, pbar, p, qv, kv, vv, 0.5)
		}()
	}
}
