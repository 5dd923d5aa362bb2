package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func smallArch() Arch {
	return Arch{
		Config: core.Config{
			Channels: 6, ImgH: 4, ImgW: 4, Patch: 2,
			Embed: 8, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 7,
		},
		Depth:      2,
		MetaTokens: 1,
	}
}

func TestPatchifyUnpatchifyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		b := 1 + int(rng.Int31n(2))
		c := 1 + int(rng.Int31n(4))
		p := []int{1, 2}[rng.Intn(2)]
		ph := 1 + int(rng.Int31n(3))
		pw := 1 + int(rng.Int31n(3))
		x := tensor.Randn(rng, b, c, p*ph, p*pw)
		back := Unpatchify(Patchify(x, p), c, p*ph, p*pw, p)
		return tensor.MaxAbsDiff(back, x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPatchifyTokenLayout(t *testing.T) {
	// 1 channel, 2x4 image, patch 2: token 0 = left patch, token 1 = right.
	x := tensor.FromSlice([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 1, 1, 2, 4)
	p := Patchify(x, 2)
	if p.Shape[1] != 2 || p.Shape[2] != 4 {
		t.Fatalf("shape = %v", p.Shape)
	}
	want0 := []float64{0, 1, 4, 5}
	want1 := []float64{2, 3, 6, 7}
	for i := range want0 {
		if p.At(0, 0, i) != want0[i] || p.At(0, 1, i) != want1[i] {
			t.Fatalf("token layout wrong: %v", p.Data)
		}
	}
}

func TestSerialForwardShapesAndDeterminism(t *testing.T) {
	a := smallArch()
	m1 := NewSerial(a)
	m2 := NewSerial(a)
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 2, a.Channels, a.ImgH, a.ImgW)
	y1 := m1.Forward(x, nil)
	y2 := m2.Forward(x, nil)
	if y1.Shape[0] != 2 || y1.Shape[1] != a.Tokens() || y1.Shape[2] != a.HeadDim() {
		t.Fatalf("pred shape = %v", y1.Shape)
	}
	if tensor.MaxAbsDiff(y1, y2) != 0 {
		t.Fatal("same-seed models must agree")
	}
}

func TestFoundationModelGradients(t *testing.T) {
	a := Arch{
		Config: core.Config{
			Channels: 2, ImgH: 2, ImgW: 2, Patch: 2,
			Embed: 4, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 3,
		},
		Depth:      1,
		MetaTokens: 1,
	}
	m := NewSerial(a)
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, 1, a.Channels, a.ImgH, a.ImgW)
	r := tensor.Randn(rng, 1, a.Tokens(), a.HeadDim())

	loss := func() float64 {
		pred := m.Forward(x, nil)
		s := 0.0
		for i := range pred.Data {
			s += pred.Data[i] * r.Data[i]
		}
		return s
	}
	loss()
	nn.ZeroGrads(m.Params())
	dx := m.Backward(r)
	const eps = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx.Data[i]) > 1e-4 {
			t.Fatalf("input grad mismatch at %d: numeric %v analytic %v", i, numeric, dx.Data[i])
		}
	}
}

func TestMaskRoutesGradientsToMaskToken(t *testing.T) {
	a := smallArch()
	m := NewSerial(a)
	rng := tensor.NewRNG(3)
	x := tensor.Randn(rng, 1, a.Channels, a.ImgH, a.ImgW)
	mask := tensor.New(1, a.Tokens())
	mask.Set(1, 0, 0) // mask first token
	pred := m.Forward(x, mask)
	nn.ZeroGrads(m.Params())
	up := tensor.Ones(pred.Shape...)
	dimg := m.Backward(up)
	if tensor.MaxAbsDiff(m.MaskTok.Grad, tensor.New(m.MaskTok.Grad.Shape...)) == 0 {
		t.Fatal("mask token must receive gradient when masking is active")
	}
	if tensor.MaxAbsDiff(dimg, tensor.New(dimg.Shape...)) == 0 {
		t.Fatal("unmasked tokens must still propagate to the image")
	}
	// Without mask, the mask token gets no gradient.
	m2 := NewSerial(a)
	p2 := m2.Forward(x, nil)
	nn.ZeroGrads(m2.Params())
	m2.Backward(tensor.Ones(p2.Shape...))
	if tensor.MaxAbsDiff(m2.MaskTok.Grad, tensor.New(m2.MaskTok.Grad.Shape...)) != 0 {
		t.Fatal("mask token must be inert without masking")
	}
}

func TestDistributedMatchesSerialEquivalent(t *testing.T) {
	a := smallArch()
	const p = 2
	rng := tensor.NewRNG(4)
	x := tensor.Randn(rng, 2, a.Channels, a.ImgH, a.ImgW)
	up := tensor.Randn(rng, 2, a.Tokens(), a.HeadDim())

	ref := NewSerialDCHAGEquivalent(a, p)
	wantPred := ref.Forward(x, nil)
	nn.ZeroGrads(ref.Params())
	wantDimg := ref.Backward(up)

	_, err := comm.Run(p, func(c *comm.Communicator) error {
		m := NewDistributed(a, c, false)
		stage := m.Stage.(*DCHAGStage)
		lo, hi := stage.ChannelBounds()
		pred := m.Forward(tensor.SliceAxis(x, 1, lo, hi), nil)
		if diff := tensor.MaxAbsDiff(pred, wantPred); diff > 1e-9 {
			return fmt.Errorf("rank %d pred differs by %g", c.Rank(), diff)
		}
		nn.ZeroGrads(m.Params())
		dimg := m.Backward(up)
		want := tensor.SliceAxis(wantDimg, 1, lo, hi)
		if diff := tensor.MaxAbsDiff(dimg, want); diff > 1e-9 {
			return fmt.Errorf("rank %d dimg differs by %g", c.Rank(), diff)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedTPViTMatchesReplicatedViT(t *testing.T) {
	a := smallArch()
	const p = 2
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 1, a.Channels, a.ImgH, a.ImgW)

	preds := make([]*tensor.Tensor, 2) // [replicated, tp]
	for i, tp := range []bool{false, true} {
		var captured *tensor.Tensor
		_, err := comm.Run(p, func(c *comm.Communicator) error {
			m := NewDistributed(a, c, tp)
			stage := m.Stage.(*DCHAGStage)
			lo, hi := stage.ChannelBounds()
			pred := m.Forward(tensor.SliceAxis(x, 1, lo, hi), nil)
			if c.Rank() == 0 {
				captured = pred
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = captured
	}
	if diff := tensor.MaxAbsDiff(preds[0], preds[1]); diff > 1e-9 {
		t.Fatalf("TP ViT and replicated ViT disagree by %g", diff)
	}
}

// TestSerialStageBaselineUsesSingleCrossAttention: the baseline's stage is
// one partial module of one cross-attention layer over every channel, with
// no final layer above it.
func TestSerialStageBaselineUsesSingleCrossAttention(t *testing.T) {
	a := smallArch()
	a.Kind = core.KindCross
	a.Tree = 0
	s := NewSerial(a).Stage.(*DCHAGStage)
	if len(s.Partials) != 1 || s.Final != nil {
		t.Fatalf("baseline stage has %d partial modules and final layer %v, want one and none", len(s.Partials), s.Final)
	}
	if p := s.Partials[0]; p.Plan.NumLayers() != 1 || p.Channels() != a.Channels {
		t.Fatalf("baseline stage should be one aggregation layer over %d channels, plan %v", a.Channels, p.Plan)
	}
	if _, ok := s.Partials[0].Levels[0][0].(*core.CrossAttnAggregator); !ok {
		t.Fatalf("baseline layer is %T, want cross-attention", s.Partials[0].Levels[0][0])
	}
}

func TestParamCountPositiveAndGrowsWithDepth(t *testing.T) {
	a := smallArch()
	n1 := a.ParamCount()
	a2 := a
	a2.Depth = 4
	n2 := a2.ParamCount()
	if n1 <= 0 || n2 <= n1 {
		t.Fatalf("param counts: depth2=%d depth4=%d", n1, n2)
	}
}

func TestPredictImageShape(t *testing.T) {
	a := smallArch()
	m := NewSerial(a)
	x := tensor.Randn(tensor.NewRNG(6), 2, a.Channels, a.ImgH, a.ImgW)
	img := m.PredictImage(x)
	if img.Shape[0] != 2 || img.Shape[1] != a.Channels || img.Shape[2] != a.ImgH || img.Shape[3] != a.ImgW {
		t.Fatalf("PredictImage shape = %v", img.Shape)
	}
}

func TestPartitionParamsSerialAllReplicated(t *testing.T) {
	// The one-rank stage's parameters are its local shards (the whole
	// channel range); everything after them is replicated, and the two lists
	// together are Params in order.
	m := NewSerial(smallArch())
	local, repl := m.PartitionParams()
	if want := m.Stage.Params(); len(local) != len(want) {
		t.Fatalf("serial model has %d local parameters, want the stage's %d", len(local), len(want))
	}
	all := append(local, repl...)
	params := m.Params()
	if len(all) != len(params) {
		t.Fatalf("local %d + replicated %d != total %d", len(local), len(repl), len(params))
	}
	for i, p := range params {
		if all[i] != p {
			t.Fatalf("parameter %d: local ∪ replicated has %s, Params has %s", i, all[i].Name, p.Name)
		}
	}
}

func TestPartitionParamsDistributedCoversEverything(t *testing.T) {
	a := smallArch()
	for _, tpViT := range []bool{false, true} {
		_, err := comm.Run(2, func(c *comm.Communicator) error {
			m := NewDistributed(a, c, tpViT)
			local, repl := m.PartitionParams()
			if len(local) == 0 {
				return fmt.Errorf("distributed model must have local shards")
			}
			if len(local)+len(repl) != len(m.Params()) {
				return fmt.Errorf("partition %d+%d != total %d (tpViT=%v)",
					len(local), len(repl), len(m.Params()), tpViT)
			}
			seen := map[*nn.Param]bool{}
			for _, p := range append(append([]*nn.Param{}, local...), repl...) {
				if seen[p] {
					return fmt.Errorf("param %q appears twice in partition", p.Name)
				}
				seen[p] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// wrappedStage is a caller's wrapper around a model's stage (a timer, say):
// it embeds the stage and adds nothing.
type wrappedStage struct{ ChannelStage }

// TestWrappedStageIsSeenThrough: a wrapper around the stage changes nothing
// the model derives from the concrete stage. PartitionParams still files a
// sharded stage's parameters as rank-local (filed as replicated, every rank
// would clip by a different norm), and SetInferDType still reaches the stage
// (skipped, the stage would stay in F64 under F32 serving).
func TestWrappedStageIsSeenThrough(t *testing.T) {
	a := smallArch()
	a.Kind = core.KindCross
	_, err := comm.Run(2, func(c *comm.Communicator) error {
		m := NewDistributed(a, c, true)
		wantLocal, wantRepl := m.PartitionParams()
		m.Stage = wrappedStage{m.Stage}
		local, repl := m.PartitionParams()
		if fmt.Sprint(local) != fmt.Sprint(wantLocal) || fmt.Sprint(repl) != fmt.Sprint(wantRepl) {
			return fmt.Errorf("rank %d: wrapped stage partitions %d local + %d replicated, want %d + %d",
				c.Rank(), len(local), len(repl), len(wantLocal), len(wantRepl))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	x := tensor.Randn(tensor.NewRNG(3), 2, a.Channels, a.ImgH, a.ImgW)
	plain, wrapped := NewSerialDCHAGEquivalent(a, 2), NewSerialDCHAGEquivalent(a, 2)
	wrapped.Stage = wrappedStage{wrapped.Stage}
	plain.SetInferDType(tensor.F32)
	wrapped.SetInferDType(tensor.F32)
	if d := tensor.MaxAbsDiff(wrapped.Infer(x, nil), plain.Infer(x, nil)); d != 0 {
		t.Fatalf("F32 Infer through a wrapped stage differs from the plain model's by %g", d)
	}
}

func TestSwinModelDistributedMatchesSerialEquivalent(t *testing.T) {
	// Paper Sec. 3.5: D-CHAG is agnostic to the ViT architecture. Swap the
	// standard blocks for Swin windowed-attention blocks and the
	// distributed-equals-serial property must be untouched.
	a := smallArch()
	a.MetaTokens = 0
	a.ImgH, a.ImgW = 8, 8 // 4x4 token grid
	a.SwinWindow = 2
	const p = 2
	rng := tensor.NewRNG(44)
	x := tensor.Randn(rng, 2, a.Channels, a.ImgH, a.ImgW)
	up := tensor.Randn(rng, 2, a.Tokens(), a.HeadDim())

	ref := NewSerialDCHAGEquivalent(a, p)
	if _, ok := ref.Blocks[0].(*nn.SwinBlock); !ok {
		t.Fatal("SwinWindow must select Swin blocks")
	}
	wantPred := ref.Forward(x, nil)
	nn.ZeroGrads(ref.Params())
	wantDimg := ref.Backward(up)

	_, err := comm.Run(p, func(c *comm.Communicator) error {
		m := NewDistributed(a, c, false)
		stage := m.Stage.(*DCHAGStage)
		lo, hi := stage.ChannelBounds()
		pred := m.Forward(tensor.SliceAxis(x, 1, lo, hi), nil)
		if diff := tensor.MaxAbsDiff(pred, wantPred); diff > 1e-9 {
			return fmt.Errorf("rank %d swin pred differs by %g", c.Rank(), diff)
		}
		nn.ZeroGrads(m.Params())
		dimg := m.Backward(up)
		if diff := tensor.MaxAbsDiff(dimg, tensor.SliceAxis(wantDimg, 1, lo, hi)); diff > 1e-9 {
			return fmt.Errorf("rank %d swin dimg differs by %g", c.Rank(), diff)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSwinRequiresNoMetaTokens(t *testing.T) {
	a := smallArch()
	a.ImgH, a.ImgW = 8, 8
	a.SwinWindow = 2 // MetaTokens is 1 in smallArch
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Swin with meta tokens")
		}
	}()
	NewSerial(a)
}
