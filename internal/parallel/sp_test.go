package parallel

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestSPSelfAttentionMatchesSerial(t *testing.T) {
	const (
		embed, heads = 8, 2
		b, tokens    = 2, 8
		sp           = 4
	)
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, b, tokens, embed)
	up := tensor.Randn(rng, b, tokens, embed)

	serial := nn.NewSelfAttention("attn", embed, heads, 99)
	wantY := serial.Forward(x)
	nn.ZeroGrads(serial.Params())
	wantDx := serial.Backward(up)

	_, err := comm.Run(sp, func(c *comm.Communicator) error {
		a := NewSPSelfAttention("attn", embed, heads, 99, c)
		xl := ScatterTokens(x, c)
		y := a.Forward(xl)
		wantShard := ScatterTokens(wantY, c)
		if diff := tensor.MaxAbsDiff(y, wantShard); diff > 1e-9 {
			return fmt.Errorf("rank %d forward differs by %g", c.Rank(), diff)
		}
		nn.ZeroGrads(a.Params())
		dx := a.Backward(ScatterTokens(up, c))
		wantDxShard := ScatterTokens(wantDx, c)
		if diff := tensor.MaxAbsDiff(dx, wantDxShard); diff > 1e-9 {
			return fmt.Errorf("rank %d dx differs by %g", c.Rank(), diff)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSPBlockMatchesSerialIncludingGradients(t *testing.T) {
	const (
		embed, heads = 8, 2
		b, tokens    = 1, 6
		sp           = 2
	)
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, b, tokens, embed)
	up := tensor.Randn(rng, b, tokens, embed)

	serial := nn.NewTransformerBlock("blk", embed, heads, 55)
	wantY := serial.Forward(x)
	nn.ZeroGrads(serial.Params())
	wantDx := serial.Backward(up)
	wantGrads := map[string]*tensor.Tensor{}
	for _, p := range serial.Params() {
		wantGrads[p.Name] = p.Grad.Clone()
	}

	_, err := comm.Run(sp, func(c *comm.Communicator) error {
		blk := NewSPTransformerBlock("blk", embed, heads, 55, c)
		y := blk.Forward(ScatterTokens(x, c))
		if diff := tensor.MaxAbsDiff(y, ScatterTokens(wantY, c)); diff > 1e-9 {
			return fmt.Errorf("rank %d forward differs by %g", c.Rank(), diff)
		}
		nn.ZeroGrads(blk.Params())
		dx := blk.Backward(ScatterTokens(up, c))
		if diff := tensor.MaxAbsDiff(dx, ScatterTokens(wantDx, c)); diff > 1e-9 {
			return fmt.Errorf("rank %d dx differs by %g", c.Rank(), diff)
		}
		blk.SyncGradients()
		for _, p := range blk.Params() {
			want, ok := wantGrads[p.Name]
			if !ok {
				return fmt.Errorf("param %q missing from serial block", p.Name)
			}
			if diff := tensor.MaxAbsDiff(p.Grad, want); diff > 1e-9 {
				return fmt.Errorf("rank %d param %q grad differs by %g", c.Rank(), p.Name, diff)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterGatherTokensRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.Randn(rng, 2, 8, 4)
	_, err := comm.Run(4, func(c *comm.Communicator) error {
		back := GatherTokens(ScatterTokens(x, c), c)
		if tensor.MaxAbsDiff(back, x) != 0 {
			return fmt.Errorf("rank %d round trip failed", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDCHAGComposesWithSP demonstrates the paper's Sec. 3.5 claim: the
// D-CHAG channel stage ends exactly where sequence parallelism begins, so
// the fused representation can be scattered along the token axis and the
// whole pipeline still matches the serial model.
func TestDCHAGComposesWithSP(t *testing.T) {
	cfg := core.Config{
		Channels: 8, ImgH: 4, ImgW: 4, Patch: 2, // 4 spatial tokens
		Embed: 8, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 77,
	}
	const p = 2
	rng := tensor.NewRNG(4)
	x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
	up := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)

	// Serial pipeline: D-CHAG reference stage + serial block.
	ref := core.NewReference(cfg, p)
	blkSerial := nn.NewTransformerBlock("spvit", cfg.Embed, cfg.Heads, 88)
	wantY := blkSerial.Forward(ref.Forward(x))
	nn.ZeroGrads(ref.Params())
	nn.ZeroGrads(blkSerial.Params())
	wantDimg := ref.Backward(blkSerial.Backward(up))

	_, err := comm.Run(p, func(c *comm.Communicator) error {
		stage := core.NewDCHAGPartitioned(cfg, c, c.Size())
		blk := NewSPTransformerBlock("spvit", cfg.Embed, cfg.Heads, 88, c)
		xs := tensor.SliceAxis(x, 1, stage.ChLo, stage.ChHi)

		fused := stage.Forward(xs)                     // replicated [B,T,E]
		yLocal := blk.Forward(ScatterTokens(fused, c)) // SP shard
		y := GatherTokens(yLocal, c)
		if diff := tensor.MaxAbsDiff(y, wantY); diff > 1e-9 {
			return fmt.Errorf("rank %d D-CHAG+SP forward differs by %g", c.Rank(), diff)
		}

		nn.ZeroGrads(stage.Params())
		nn.ZeroGrads(blk.Params())
		dFusedLocal := blk.Backward(ScatterTokens(up, c))
		dFused := GatherTokens(dFusedLocal, c) // back to replicated layout
		dimg := stage.Backward(dFused)
		lo, hi := stage.ChLo, stage.ChHi
		if diff := tensor.MaxAbsDiff(dimg, tensor.SliceAxis(wantDimg, 1, lo, hi)); diff > 1e-9 {
			return fmt.Errorf("rank %d D-CHAG+SP backward differs by %g", c.Rank(), diff)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSPCommunicationPattern(t *testing.T) {
	// SP attention: 2 AllGathers forward (K and V), 2 ReduceScatters
	// backward — the "different performance characteristics" the paper
	// contrasts with D-CHAG's silent backward.
	const sp = 2
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 1, 4, 8)
	up := tensor.Randn(rng, 1, 4, 8)
	g, err := comm.Run(sp, func(c *comm.Communicator) error {
		a := NewSPSelfAttention("a", 8, 2, 1, c)
		c.SetPhase("forward")
		a.Forward(ScatterTokens(x, c))
		c.SetPhase("backward")
		a.Backward(ScatterTokens(up, c))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < sp; r++ {
		if got := g.Traffic().CallsFor(r, "forward", comm.OpAllGather); got != 2 {
			t.Fatalf("rank %d forward allgathers = %d, want 2 (K and V)", r, got)
		}
		if got := g.Traffic().CallsFor(r, "backward", comm.OpReduceScatter); got != 2 {
			t.Fatalf("rank %d backward reduce-scatters = %d, want 2 (dK and dV)", r, got)
		}
	}
}
