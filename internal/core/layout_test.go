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
// oracle that pins "data movement only": the shipped stage must equal it bit
// for bit. It borrows a Reference's layers and parameters and none of its
// passes, and allocates every intermediate afresh. With viaEntryPoints it
// hands each partition's channel-major slice to the module's own
// Forward/Infer/Backward instead of walking the tree itself.
type oracleStage struct {
	r              *Reference
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
	seq := tensor.New(b*t, r.P, e)
	lo := 0
	for j, partial := range r.Partials {
		partIn := tensor.SliceAxis(emb, 1, lo, lo+partial.Channels())
		lo += partial.Channels()
		var cur *tensor.Tensor
		switch {
		case o.viaEntryPoints && infer:
			cur = partial.Infer(partIn)
		case o.viaEntryPoints:
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
						y = nn.Infer(agg, in)
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

func (o *oracleStage) backward(grad *tensor.Tensor) *tensor.Tensor {
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
					part := agg.Backward(column(cur, gi))
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
	return r.Tok.Backward(dEmb)
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
	for _, kind := range []LayerKind{KindCross, KindLinear, KindPerceiver} {
		for _, tree := range []int{0, 2, 3} {
			for _, batch := range []int{1, 3} {
				cfg := Config{Channels: 10, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: 2, Tree: tree, Kind: kind, Seed: 4242}
				f(fmt.Sprintf("kind=%s/tree=%d/batch=%d", kind, tree, batch), cfg, batch)
			}
		}
	}
}

// TestStageEqualsCopyingCompositionBitwise is the "data movement only"
// oracle: tokenizing straight into the group inputs with the bias and
// channel-ID epilogue fused, walking the tree in place and reading the
// tokenizer's gradient where the aggregators left it changes no value —
// output, image gradient and every parameter gradient (tokenizer weight and
// bias, channel-ID table, every aggregator, the final layer) equal the
// copying composition's bit for bit, on a first step and on a second one
// accumulating into non-zero gradients, and so does Infer under F64 and
// under F32. The same holds for the composition through the modules'
// channel-major entry points.
func TestStageEqualsCopyingCompositionBitwise(t *testing.T) {
	const partitions = 4
	layoutConfigs(func(name string, cfg Config, batch int) {
		for _, via := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/entrypoints=%v", name, via), func(t *testing.T) {
				stage := NewReference(cfg, partitions)
				oracle := &oracleStage{r: NewReference(cfg, partitions), viaEntryPoints: via}
				rng := tensor.NewRNG(7)
				jitter(stage.Params())
				jitter(oracle.r.Params())
				for step := 0; step < 2; step++ {
					x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
					d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
					what := fmt.Sprintf("step %d", step)
					sameBits(t, what+" output", stage.Forward(x), oracle.pass(x, false))
					sameBits(t, what+" image gradient", stage.Backward(d), oracle.backward(d))
					sameGrads(t, what, stage.Params(), oracle.r.Params())
					sameBits(t, what+" Infer", stage.Infer(x), oracle.pass(x, true))
				}
				stage.SetInferDType(tensor.F32)
				oracle.r.SetInferDType(tensor.F32)
				x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
				sameBits(t, "F32 Infer", stage.Infer(x), oracle.pass(x, true))
			})
		}
	})
}

// TestInferLeavesPendingBackwardAlone: an Infer between a Forward and its
// Backward — on another input, at another batch size — must not touch a
// group input an aggregator cached, so the gradients are those of
// Forward(x1), Backward(d) alone.
func TestInferLeavesPendingBackwardAlone(t *testing.T) {
	layoutConfigs(func(name string, cfg Config, batch int) {
		plain, mixed := NewReference(cfg, 4), NewReference(cfg, 4)
		rng := tensor.NewRNG(8)
		x1 := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
		x2 := tensor.Randn(rng, batch+1, cfg.Channels, cfg.ImgH, cfg.ImgW)
		d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
		jitter(plain.Params())
		jitter(mixed.Params())
		plain.Forward(x1)
		mixed.Forward(x1)
		mixed.Infer(x2)
		sameBits(t, name+" image gradient", mixed.Backward(d), plain.Backward(d))
		sameGrads(t, name, mixed.Params(), plain.Params())
	})
}

// TestEveryRealizationAgreesBitwise: the logical model is one — DCHAG over
// 1, 2 and 4 ranks and Reference(4) produce the same output, the same
// image-shard gradients and the same parameter gradients bit for bit, and
// Infer equals Forward on each.
func TestEveryRealizationAgreesBitwise(t *testing.T) {
	const partitions = 4
	layoutConfigs(func(name string, cfg Config, batch int) {
		rng := tensor.NewRNG(9)
		x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
		d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
		ref := NewReference(cfg, partitions)
		nn.ZeroGrads(ref.Params())
		wantOut := ref.Forward(x).Clone()
		wantImg := ref.Backward(d)
		want := map[string]*tensor.Tensor{}
		for _, p := range ref.Params() {
			want[p.Name] = p.Grad
		}
		sameBits(t, name+" Reference Infer", ref.Infer(x), wantOut)
		for _, q := range []int{1, 2, 4} {
			_, err := comm.Run(q, func(c *comm.Communicator) error {
				what := fmt.Sprintf("%s q=%d rank %d", name, q, c.Rank())
				s := NewDCHAGPartitioned(cfg, c, partitions)
				xs := tensor.SliceAxis(x, 1, s.ChLo, s.ChHi)
				nn.ZeroGrads(s.Params())
				errs := []error{
					diffBits(what+" output", s.Forward(xs), wantOut),
					diffBits(what+" image gradient", s.Backward(d), tensor.SliceAxis(wantImg, 1, s.ChLo, s.ChHi)),
				}
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
