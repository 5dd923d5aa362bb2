// Quickstart: build the paper's generic multi-channel foundation model
// (Fig. 1), run it serially and with the D-CHAG channel stage over two
// simulated ranks, and verify that both produce the same predictions while
// D-CHAG's backward pass performs zero communication.
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	// A small model: 16 channels of 8x8 images, patch 2 (16 spatial tokens),
	// 16-dim embeddings, 2 transformer blocks.
	arch := model.Arch{
		Config: core.Config{
			Channels: 16, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 16, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 42,
		},
		Depth:      2,
		MetaTokens: 1,
	}
	fmt.Printf("architecture: %d channels, %d tokens, %d params (serial)\n",
		arch.Channels, arch.Tokens(), arch.ParamCount())

	// A random multi-channel image batch.
	rng := tensor.NewRNG(7)
	x := tensor.Randn(rng, 2, arch.Channels, arch.ImgH, arch.ImgW)

	// Serial model mathematically equivalent to D-CHAG over 2 ranks.
	serial := model.NewSerialDCHAGEquivalent(arch, 2)
	want := serial.Forward(x, nil)
	fmt.Printf("serial prediction shape: %v\n", want.Shape)

	// The same model distributed over two simulated ranks: each rank holds
	// half of the channels and the full spatial batch.
	group, err := comm.Run(2, func(c *comm.Communicator) error {
		m := model.NewDistributed(arch, c, false)
		lo, hi := m.DCHAG().ChannelBounds()
		c.SetPhase("forward")
		pred := m.Forward(tensor.SliceAxis(x, 1, lo, hi), nil)
		if diff := tensor.MaxAbsDiff(pred, want); diff > 1e-9 {
			return fmt.Errorf("rank %d diverges from serial by %g", c.Rank(), diff)
		}
		c.SetPhase("backward")
		nn.ZeroGrads(m.Params())
		m.Backward(tensor.Ones(pred.Shape...))
		fmt.Printf("rank %d: channels [%d,%d), prediction matches serial exactly\n", c.Rank(), lo, hi)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forward communication: %d bytes (one token per rank AllGather)\n",
		group.Traffic().BytesInPhase("forward"))
	fmt.Printf("backward communication: %d bytes (the paper's zero-comm claim)\n",
		group.Traffic().BytesInPhase("backward"))
}
