package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// oracleStage is the channel stage as every stage type composed it before
// the tokenizer wrote the aggregators' layout — tokenizer output, a
// channel-ID pass, a channel slice per partition, a fold to [N, C, E], a
// slice per group, the aggregators, and the same chain back — kept as the
// oracle the shipped stage is held to: bit for bit where it moves data only,
// within foldBound where its folded first level reassociates sums. It borrows a one-rank stage's layers and parameters and none of its
// passes, and allocates every intermediate afresh. With viaEntryPoints its
// training pass hands each partition's channel-major slice to the module's
// own Forward/Backward instead of walking the tree itself.
type oracleStage struct {
	r              *DCHAG
	viaEntryPoints bool
	b              int
}

func fold(x *tensor.Tensor) *tensor.Tensor { // [B, C, T, E] -> [B*T, C, E]
	b, c, t, e := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(b*t, c, e)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			for ti := 0; ti < t; ti++ {
				copy(out.Data[((bi*t+ti)*c+ci)*e:][:e], x.Data[((bi*c+ci)*t+ti)*e:][:e])
			}
		}
	}
	return out
}

func unfold(x *tensor.Tensor, b, t int) *tensor.Tensor { // [B*T, C, E] -> [B, C, T, E]
	c, e := x.Shape[1], x.Shape[2]
	out := tensor.New(b, c, t, e)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			for ti := 0; ti < t; ti++ {
				copy(out.Data[((bi*c+ci)*t+ti)*e:][:e], x.Data[((bi*t+ti)*c+ci)*e:][:e])
			}
		}
	}
	return out
}

// column returns column gi of x [N, G, E] as [N, E].
func column(x *tensor.Tensor, gi int) *tensor.Tensor {
	return tensor.SliceAxis(x, 1, gi, gi+1).Reshape(x.Shape[0], x.Shape[2])
}

func (o *oracleStage) pass(x *tensor.Tensor, infer bool) *tensor.Tensor {
	r := o.r
	b, t, e := x.Shape[0], r.Cfg.Tokens(), r.Cfg.Embed
	var tok *tensor.Tensor
	if infer {
		tok = r.Tok.Infer(x)
	} else {
		o.b = b
		tok = r.Tok.Forward(x)
	}
	emb := tok.Clone()
	c := r.Cfg.Channels
	for row := 0; row < b*c*t; row++ {
		id := r.ChEmb.Table.W.Data[row/t%c*e:][:e]
		for i, v := range id {
			emb.Data[row*e+i] += v
		}
	}
	seq := tensor.New(b*t, r.Partitions, e)
	lo := 0
	for j, partial := range r.Partials {
		partIn := tensor.SliceAxis(emb, 1, lo, lo+partial.Channels())
		lo += partial.Channels()
		var cur *tensor.Tensor
		switch {
		case o.viaEntryPoints && !infer:
			cur = partial.Forward(partIn)
		default:
			cur = fold(partIn)
			for l, level := range partial.Levels {
				out, off := tensor.New(b*t, len(level), e), 0
				for gi, agg := range level {
					in := tensor.SliceAxis(cur, 1, off, off+partial.Plan[l][gi])
					off += partial.Plan[l][gi]
					var y *tensor.Tensor
					if infer {
						y = agg.Infer(in)
					} else {
						y = agg.Forward(in)
					}
					tensor.SetSliceAxis(out, 1, gi, y.Reshape(b*t, 1, e))
				}
				cur = out
			}
		}
		tensor.SetSliceAxis(seq, 1, j, cur.Reshape(b*t, 1, e))
	}
	if infer {
		return r.Final.Infer(seq).Reshape(b, t, e)
	}
	return r.Final.Forward(seq).Reshape(b, t, e)
}

func (o *oracleStage) backward(grad *tensor.Tensor) {
	r := o.r
	b, t, e := o.b, r.Cfg.Tokens(), r.Cfg.Embed
	dSeq := r.Final.Backward(grad.Reshape(b*t, e))
	dEmb := tensor.New(b, r.Cfg.Channels, t, e)
	lo := 0
	for j, partial := range r.Partials {
		var dx *tensor.Tensor // [B, ck, T, E]
		if o.viaEntryPoints {
			dx = partial.Backward(column(dSeq, j).Reshape(b, t, e))
		} else {
			cur := column(dSeq, j).Reshape(b*t, 1, e)
			for l := len(partial.Levels) - 1; l >= 0; l-- {
				width := 0
				for _, g := range partial.Plan[l] {
					width += g
				}
				dCat, off := tensor.New(b*t, width, e), 0
				for gi, agg := range partial.Levels[l] {
					part := agg.backward(column(cur, gi), new(workspace))
					tensor.SetSliceAxis(dCat, 1, off, part)
					off += part.Shape[1]
				}
				cur = dCat
			}
			dx = unfold(cur, b, t)
		}
		tensor.SetSliceAxis(dEmb, 1, lo, dx)
		lo += partial.Channels()
	}
	c := r.Cfg.Channels
	for row := 0; row < b*c*t; row++ {
		g := r.ChEmb.Table.Grad.Data[row/t%c*e:][:e]
		for i := range g {
			g[i] += dEmb.Data[row*e+i]
		}
	}
	r.Tok.Backward(dEmb)
}

// diffBits reports the first place got and want differ bit for bit (so -0
// and +0, or two NaNs, do not pass for one another).
func diffBits(what string, got, want *tensor.Tensor) error {
	if len(got.Data) != len(want.Data) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got.Data), len(want.Data))
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("%s: value %d is %v (%#x), oracle has %v (%#x)", what, i, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
	return nil
}

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if err := diffBits(what, got, want); err != nil {
		t.Fatal(err)
	}
}

func sameGrads(t *testing.T, what string, got, want []*nn.Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d parameters, oracle has %d", what, len(got), len(want))
	}
	for i, p := range got {
		if p.Name != want[i].Name {
			t.Fatalf("%s: parameter %d is %s, oracle has %s", what, i, p.Name, want[i].Name)
		}
		sameBits(t, what+" grad "+p.Name, p.Grad, want[i].Grad)
	}
}

// jitter moves every parameter off its initial value (biases start at zero,
// where adding them in any order gives the same bits), identically for every
// stage built from the same config.
func jitter(ps []*nn.Param) {
	rng := tensor.NewRNG(31)
	for _, p := range ps {
		for i := range p.W.Data {
			p.W.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
}

// layoutConfigs is the matrix the layout tests run: every partial-layer
// kind, flat and two-level trees (Tree 3 is clamped to 2 on the two-channel
// partitions), an uneven channel split (10 channels over 4 partitions: 3, 3,
// 2, 2) and batch 1 and 3.
func layoutConfigs(f func(name string, cfg Config, batch int)) {
	for _, kind := range []LayerKind{KindCross, KindLinear} {
		for _, tree := range []int{0, 2, 3} {
			for _, batch := range []int{1, 3} {
				cfg := Config{Channels: 10, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: 2, Tree: tree, Kind: kind, Seed: 4242}
				f(fmt.Sprintf("kind=%s/tree=%d/batch=%d", kind, tree, batch), cfg, batch)
			}
		}
	}
}

// foldBound is the relative deviation a stage, whose first level folds the
// tokenizer in, may show against the copying composition, which tokenizes
// and then aggregates: the fold reassociates sums, so it moves bits, and the
// bound says by how little. It is at most ten times the worst deviation
// TestStageEqualsCopyingCompositionBitwise measured (it logs them). A cross
// stage: 2.02e-13 in float64 and 9.03e-5 in float32 inference, where the
// composition's tokenizer and projections narrow and the fold does not. A
// linear stage: 1.12e-14 in float64, on its gradients only; its output and
// its Infer keep the composition's bits.
var foldBound = map[LayerKind]map[tensor.DType]float64{
	KindCross:  {tensor.F64: 2e-12, tensor.F32: 9e-4},
	KindLinear: {tensor.F64: 1e-13},
}

// deviation is max|got - want| over scale, or over max|want| when scale is
// 0: how far got lies from want relative to the values at stake.
func deviation(got, want *tensor.Tensor, scale float64) float64 {
	var d float64
	for i, w := range want.Data {
		d = math.Max(d, math.Abs(got.Data[i]-w))
		if scale == 0 {
			scale = math.Max(scale, math.Abs(w))
		}
	}
	if d == 0 {
		return 0
	}
	return d / scale
}

// foldCheck holds a stage's results to the copying composition's within
// foldBound, recording the worst deviation of each arithmetic in worst.
type foldCheck struct {
	kind  LayerKind
	worst map[tensor.DType]float64
}

// same holds what a linear stage computes as the composition does — its
// output and its Infer — bit for bit, and a cross stage's within foldBound.
func (f foldCheck) same(t *testing.T, dt tensor.DType, what string, got, want *tensor.Tensor) {
	t.Helper()
	if f.kind == KindLinear {
		sameBits(t, what, got, want)
		return
	}
	f.near(t, dt, what, got, want, 0)
}

// near holds got within foldBound of want, deviations taken relative to
// scale (0: the oracle tensor's own).
func (f foldCheck) near(t *testing.T, dt tensor.DType, what string, got, want *tensor.Tensor, scale float64) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d values, want %d", what, len(got.Data), len(want.Data))
	}
	d := deviation(got, want, scale)
	f.worst[dt] = math.Max(f.worst[dt], d)
	if bound := foldBound[f.kind][dt]; !(d <= bound) {
		t.Fatalf("%s: relative deviation %.3g from the copying composition, bound %.3g", what, d, bound)
	}
}

func (f foldCheck) sameGrads(t *testing.T, what string, got, want []*nn.Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d parameters, oracle has %d", what, len(got), len(want))
	}
	// Relative to the largest gradient value of the step: a gradient that
	// is zero but for round-off (the key projection's bias, whose shift the
	// softmax cancels) has no scale of its own.
	var scale float64
	for _, p := range want {
		for _, v := range p.Grad.Data {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	for i, p := range got {
		if p.Name != want[i].Name {
			t.Fatalf("%s: parameter %d is %s, oracle has %s", what, i, p.Name, want[i].Name)
		}
		f.near(t, tensor.F64, what+" grad "+p.Name, p.Grad, want[i].Grad, scale)
	}
}

// TestStageEqualsCopyingCompositionBitwise holds the stage to the copying
// composition — output and every parameter gradient
// (tokenizer weight and bias, channel-ID table, every aggregator, the final
// layer), on a first step and on a second one accumulating into non-zero
// gradients, and Infer under F64 and under F32 — directly and, for
// training, through the modules' channel-major entry points. Infer also holds over patch 1, 2 and
// 4 and widths 8 to 64, on the host's kernel tier and on the Go twins. Every
// stage folds the tokenizer into its first level, which writes no token: a
// linear stage adds each token, weighted, as the composition's aggregator
// does, so its output and its Infer keep the composition's bits, while its
// backward reassociates the gradients' sums; a cross stage folds the
// tokenizer into its projections, which reassociates every sum. What moves
// is held within foldBound, every value of every tensor, and the worst
// deviation is logged.
func TestStageEqualsCopyingCompositionBitwise(t *testing.T) {
	const partitions = 4
	worst := map[LayerKind]map[tensor.DType]float64{KindCross: {}, KindLinear: {}}
	defer func() {
		t.Logf("cross stage: worst relative deviation %.3g in float64, %.3g in float32 inference", worst[KindCross][tensor.F64], worst[KindCross][tensor.F32])
		t.Logf("linear stage: worst relative deviation %.3g in float64 gradients", worst[KindLinear][tensor.F64])
	}()
	layoutConfigs(func(name string, cfg Config, batch int) {
		for _, via := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/entrypoints=%v", name, via), func(t *testing.T) {
				check := foldCheck{cfg.Kind, worst[cfg.Kind]}
				stage := serialDCHAG(cfg, partitions)
				oracle := &oracleStage{r: serialDCHAG(cfg, partitions), viaEntryPoints: via}
				rng := tensor.NewRNG(7)
				jitter(stage.Params())
				jitter(oracle.r.Params())
				for step := 0; step < 2; step++ {
					x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
					d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
					what := fmt.Sprintf("step %d", step)
					check.same(t, tensor.F64, what+" output", stage.Forward(x), oracle.pass(x, false))
					stage.Backward(d)
					oracle.backward(d)
					check.sameGrads(t, what, stage.Params(), oracle.r.Params())
					check.same(t, tensor.F64, what+" Infer", stage.Infer(x), oracle.pass(x, true))
				}
				stage.SetInferDType(tensor.F32)
				oracle.r.SetInferDType(tensor.F32)
				x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
				check.same(t, tensor.F32, "F32 Infer", stage.Infer(x), oracle.pass(x, true))
			})
		}
	})
	// Infer over patch sizes and widths, where the linear stage's no-grad
	// pass tokenizes into its first level without a token tensor: E 12 and 20
	// end inside an f32 panel and past a whole 16- or 32-column block; on the
	// host's kernel tier and on the Go twins.
	for _, kind := range []LayerKind{KindLinear, KindCross} {
		for _, patch := range []int{1, 2, 4} {
			for _, e := range []int{8, 12, 20, 32, 64} {
				for _, tree := range []int{0, 2} {
					cfg := Config{Channels: 10, ImgH: 2 * patch, ImgW: 3 * patch, Patch: patch, Embed: e, Heads: 2, Tree: tree, Kind: kind, Seed: 4343}
					t.Run(fmt.Sprintf("infer/kind=%s/patch=%d/E=%d/tree=%d", kind, patch, e, tree), func(t *testing.T) {
						check := foldCheck{kind, worst[kind]}
						stage := serialDCHAG(cfg, partitions)
						oracle := &oracleStage{r: serialDCHAG(cfg, partitions)}
						jitter(stage.Params())
						jitter(oracle.r.Params())
						x := tensor.Randn(tensor.NewRNG(int64(e)), 3, cfg.Channels, cfg.ImgH, cfg.ImgW)
						for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
							stage.SetInferDType(dt)
							oracle.r.SetInferDType(dt)
							check.same(t, dt, dt.String()+" Infer", stage.Infer(x), oracle.pass(x, true))
							tensor.WithGoTwins(func() {
								check.same(t, dt, dt.String()+" Infer on the Go twins", stage.Infer(x), oracle.pass(x, true))
							})
						}
					})
				}
			}
		}
	}
}

// TestInferLeavesPendingBackwardAlone: an Infer between a Forward and its
// Backward — on another input, at another batch size — must not touch a
// group input an aggregator cached, so the gradients are those of
// Forward(x1), Backward(d) alone.
func TestInferLeavesPendingBackwardAlone(t *testing.T) {
	layoutConfigs(func(name string, cfg Config, batch int) {
		plain, mixed := serialDCHAG(cfg, 4), serialDCHAG(cfg, 4)
		rng := tensor.NewRNG(8)
		x1 := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
		x2 := tensor.Randn(rng, batch+1, cfg.Channels, cfg.ImgH, cfg.ImgW)
		d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
		jitter(plain.Params())
		jitter(mixed.Params())
		plain.Forward(x1)
		mixed.Forward(x1)
		mixed.Infer(x2)
		mixed.Backward(d)
		plain.Backward(d)
		sameGrads(t, name, mixed.Params(), plain.Params())
	})
}

// TestEveryRealizationAgreesBitwise: the logical model is one — DCHAG with
// 4 partitions over 1, 2 and 4 ranks produces the output and the parameter
// gradients of a one-rank stage built alone, bit for bit, and Infer equals
// Forward on each.
func TestEveryRealizationAgreesBitwise(t *testing.T) {
	const partitions = 4
	layoutConfigs(func(name string, cfg Config, batch int) {
		rng := tensor.NewRNG(9)
		x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
		d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
		ref := serialDCHAG(cfg, partitions)
		nn.ZeroGrads(ref.Params())
		wantOut := ref.Forward(x).Clone()
		ref.Backward(d)
		want := map[string]*tensor.Tensor{}
		for _, p := range ref.Params() {
			want[p.Name] = p.Grad
		}
		sameBits(t, name+" one-rank Infer", ref.Infer(x), wantOut)
		for _, q := range []int{1, 2, 4} {
			_, err := comm.Run(q, func(c *comm.Communicator) error {
				what := fmt.Sprintf("%s q=%d rank %d", name, q, c.Rank())
				s := NewDCHAGPartitioned(cfg, c, partitions)
				xs := tensor.SliceAxis(x, 1, s.ChLo, s.ChHi)
				nn.ZeroGrads(s.Params())
				errs := []error{diffBits(what+" output", s.Forward(xs), wantOut)}
				s.Backward(d)
				for _, p := range s.Params() {
					w := want[p.Name]
					if p.Shard != nil {
						w = tensor.SliceAxis(w, p.Shard.Axis, p.Shard.Lo, p.Shard.Hi)
					}
					errs = append(errs, diffBits(what+" grad "+p.Name, p.Grad, w))
				}
				return errors.Join(append(errs, diffBits(what+" Infer", s.Infer(xs), wantOut))...)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestSharedWorkspacesCarryNothingBetweenRounds is the aliasing oracle for
// the backward workspaces a stage lends its aggregators, one per tree level,
// over groups of uneven size (66 channels: partitions of 17, 17, 16 and 16
// channels, two first-level groups each, 9 and 8 or 8 and 8) and every kind.
// Two Forward+Backward rounds on different inputs, at batch 3 and then 2,
// give each round the parameter gradients of a stage built fresh and fed
// that round alone, bit for bit: nothing one group, one level, one partition
// or one round leaves in a workspace or the Q/K/V buffer reaches another.
// The same holds for DCHAG at 2 ranks, each rank's stage owning its own
// workspaces, against the fresh one-rank stage.
func TestSharedWorkspacesCarryNothingBetweenRounds(t *testing.T) {
	const partitions = 4
	for _, kind := range []LayerKind{KindCross, KindLinear} {
		cfg := Config{Channels: 66, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: 2, Tree: 2, Kind: kind, Seed: 77}
		rng := tensor.NewRNG(10)
		var xs, ds [2]*tensor.Tensor
		var want [2]map[string]*tensor.Tensor
		for r, b := range []int{3, 2} {
			xs[r] = tensor.Randn(rng, b, cfg.Channels, cfg.ImgH, cfg.ImgW)
			ds[r] = tensor.Randn(rng, b, cfg.Tokens(), cfg.Embed)
			fresh := serialDCHAG(cfg, partitions)
			nn.ZeroGrads(fresh.Params())
			fresh.Forward(xs[r])
			fresh.Backward(ds[r])
			want[r] = map[string]*tensor.Tensor{}
			for _, p := range fresh.Params() {
				want[r][p.Name] = p.Grad
			}
		}
		// round runs round r on s and reports where its gradients differ
		// from the fresh stage's.
		round := func(what string, s *DCHAG, r int) error {
			nn.ZeroGrads(s.Params())
			s.Forward(tensor.SliceAxis(xs[r], 1, s.ChLo, s.ChHi))
			s.Backward(ds[r])
			what = fmt.Sprintf("%s round %d", what, r)
			var errs []error
			for _, p := range s.Params() {
				w := want[r][p.Name]
				if p.Shard != nil {
					w = tensor.SliceAxis(w, p.Shard.Axis, p.Shard.Lo, p.Shard.Hi)
				}
				errs = append(errs, diffBits(what+" grad "+p.Name, p.Grad, w))
			}
			return errors.Join(errs...)
		}
		t.Run("kind="+kind.String()+"/reference", func(t *testing.T) {
			s := serialDCHAG(cfg, partitions)
			for r := range xs {
				if err := round("one rank", s, r); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Run("kind="+kind.String()+"/dchag", func(t *testing.T) {
			_, err := comm.Run(2, func(c *comm.Communicator) error {
				s := NewDCHAGPartitioned(cfg, c, partitions)
				var errs []error
				for r := range xs {
					errs = append(errs, round(fmt.Sprintf("DCHAG rank %d", c.Rank()), s, r))
				}
				return errors.Join(errs...)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
