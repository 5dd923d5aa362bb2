package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestPerceiverAggregatorGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := NewPerceiverAggregator("p", 5, 3, 8, 2, 11)
	x := tensor.Randn(rng, 4, 5, 8)
	r := tensor.Randn(rng, 4, 8)
	loss := func() float64 { return dotAll(a.Forward(x), r) }
	loss()
	nn.ZeroGrads(a.Params())
	dx := a.Backward(r)
	checkGrad(t, "perceiver/x", x, dx, loss, 1e-5)
	checkGrad(t, "perceiver/latents", a.Latents.W, a.Latents.Grad, loss, 1e-5)
}

func TestPerceiverAggregatorShapesAndDeterminism(t *testing.T) {
	a1 := NewPerceiverAggregator("p", 6, 2, 4, 2, 7)
	a2 := NewPerceiverAggregator("p", 6, 2, 4, 2, 7)
	if tensor.MaxAbsDiff(a1.Latents.W, a2.Latents.W) != 0 {
		t.Fatal("same seed must give same latents")
	}
	x := tensor.Randn(tensor.NewRNG(2), 3, 6, 4)
	y := a1.Forward(x)
	if y.Shape[0] != 3 || y.Shape[1] != 4 {
		t.Fatalf("output shape = %v, want [3,4]", y.Shape)
	}
	if a1.Group != 6 {
		t.Fatal("group size wrong")
	}
}

func TestPerceiverKindRegistered(t *testing.T) {
	if KindPerceiver.String() != "P" {
		t.Fatalf("KindPerceiver string = %q", KindPerceiver)
	}
	h := NewHierarchicalAggregator("h", BuildTreePlan(8, 2), KindPerceiver, 8, 2, 5)
	if _, ok := h.Levels[0][0].(*PerceiverAggregator); !ok {
		t.Fatal("hierarchical module must build perceiver layers for KindPerceiver")
	}
	// Forward/backward round trip through a perceiver hierarchy.
	rng := tensor.NewRNG(3)
	x := tensor.Randn(rng, 2, 8, 2, 8)
	y := h.Forward(x)
	nn.ZeroGrads(h.Params())
	dx := h.Backward(tensor.Ones(y.Shape...))
	if !tensor.SameShape(dx, x) {
		t.Fatalf("backward shape %v != input %v", dx.Shape, x.Shape)
	}
}

func TestDCHAGWithPerceiverPartialsMatchesReference(t *testing.T) {
	// The distributed-equals-serial property must hold for the Perceiver
	// extension exactly as for the paper's -C and -L variants.
	cfg := Config{
		Channels: 6, ImgH: 4, ImgW: 4, Patch: 2,
		Embed: 8, Heads: 2, Tree: 0, Kind: KindPerceiver, Seed: 909,
	}
	const p = 3
	rng := tensor.NewRNG(4)
	x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
	up := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)

	ref := NewReference(cfg, p)
	want := ref.Forward(x)
	nn.ZeroGrads(ref.Params())
	wantDimg := ref.Backward(up)

	outs, dimgs, g := runDCHAG(t, cfg, p, x, up)
	for r := 0; r < p; r++ {
		if diff := tensor.MaxAbsDiff(outs[r], want); diff > 1e-9 {
			t.Fatalf("rank %d forward differs by %g", r, diff)
		}
		lo, hi := ChannelRange(cfg.Channels, p, r)
		if diff := tensor.MaxAbsDiff(dimgs[r], tensor.SliceAxis(wantDimg, 1, lo, hi)); diff > 1e-9 {
			t.Fatalf("rank %d image grad differs by %g", r, diff)
		}
	}
	if b := g.Traffic().BytesInPhase("backward"); b != 0 {
		t.Fatalf("perceiver D-CHAG backward moved %d bytes, want 0", b)
	}
}

func TestPerceiverAttentionCostBetweenLinearAndCross(t *testing.T) {
	// The design-space position: parameter count of perceiver partials sits
	// between linear and cross-attention partials.
	const group, embed, heads = 16, 8, 2
	lin := nn.NumParams(NewLinearAggregator("l", group, embed, 1).Params())
	per := nn.NumParams(NewPerceiverAggregator("p", group, DefaultPerceiverLatents, embed, heads, 1).Params())
	cross := nn.NumParams(NewCrossAttnAggregator("c", group, embed, heads, 1).Params())
	if !(lin < per && per <= cross+DefaultPerceiverLatents*embed) {
		t.Fatalf("param ordering violated: linear %d, perceiver %d, cross %d", lin, per, cross)
	}
}

func TestPerceiverBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPerceiverAggregator("p", 2, 2, 4, 2, 1).Backward(tensor.New(1, 4))
}

func TestDCHAGPerceiverRunsUnderRace(t *testing.T) {
	// Smoke test across more ranks to exercise the rendezvous under load.
	cfg := Config{
		Channels: 8, ImgH: 2, ImgW: 2, Patch: 2,
		Embed: 4, Heads: 2, Tree: 2, Kind: KindPerceiver, Seed: 3,
	}
	x := tensor.Randn(tensor.NewRNG(5), 1, cfg.Channels, cfg.ImgH, cfg.ImgW)
	_, err := comm.Run(4, func(c *comm.Communicator) error {
		d := NewDCHAGPartitioned(cfg, c, c.Size())
		xs := tensor.SliceAxis(x, 1, d.ChLo, d.ChHi)
		y := d.Forward(xs)
		d.Backward(tensor.Ones(y.Shape...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
