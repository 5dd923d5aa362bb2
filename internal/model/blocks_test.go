package model

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// blockGrads returns the workspace field of a block of any kind the model
// builds.
func blockGrads(blk nn.Layer) **nn.BlockGrads {
	switch b := blk.(type) {
	case *nn.TransformerBlock:
		return &b.Grads
	case *nn.SwinBlock:
		return &b.Grads
	case *parallel.ParallelTransformerBlock:
		return &b.Grads
	}
	panic(fmt.Sprintf("model: block of type %T", blk))
}

// unshared gives each of m's blocks a workspace of its own, as a block built
// alone has: the reference the shared workspace is held to.
func unshared(m *FoundationModel) *FoundationModel {
	for _, blk := range m.Blocks {
		*blockGrads(blk) = new(nn.BlockGrads)
	}
	return m
}

// sharesOneWorkspace reports whether all of m's blocks borrow one workspace.
func sharesOneWorkspace(m *FoundationModel) error {
	for i, blk := range m.Blocks {
		if *blockGrads(blk) != *blockGrads(m.Blocks[0]) {
			return fmt.Errorf("block %d has a workspace of its own", i)
		}
	}
	return nil
}

// blockRounds is the aliasing oracle's data: two rounds at batch 3 and then
// 2, each with its own image and prediction gradient.
type blockRounds struct {
	xs, ups [2]*tensor.Tensor
}

func newBlockRounds(a Arch) blockRounds {
	rng := tensor.NewRNG(12)
	var br blockRounds
	for r, b := range []int{3, 2} {
		br.xs[r] = tensor.Randn(rng, b, a.Channels, a.ImgH, a.ImgW)
		br.ups[r] = tensor.Randn(rng, b, a.Tokens(), a.HeadDim())
	}
	return br
}

// round runs round r on m, its image covering channels [lo, hi), and returns
// every parameter's gradient by name.
func (br blockRounds) round(m *FoundationModel, r, lo, hi int) map[string]*tensor.Tensor {
	nn.ZeroGrads(m.Params())
	m.Forward(tensor.SliceAxis(br.xs[r], 1, lo, hi), nil)
	m.Backward(br.ups[r])
	grads := map[string]*tensor.Tensor{}
	for _, p := range m.Params() {
		grads[p.Name] = p.Grad.Clone()
	}
	return grads
}

// diffRound reports where a round's gradients differ from want's, bit for
// bit.
func diffRound(what string, grads, want map[string]*tensor.Tensor) error {
	var errs []error
	for name, g := range grads {
		if err := sameBits(g, want[name]); err != nil {
			errs = append(errs, fmt.Errorf("%s grad %s: %w", what, name, err))
		}
	}
	return errors.Join(errs...)
}

// TestSharedBlockWorkspaceCarriesNothingBetweenRounds is the aliasing oracle
// for the backward workspace a model lends all its transformer blocks
// (nn.BlockGrads). A depth-3 model runs two Forward+Backward rounds on
// different inputs, at batch 3 and then 2; each round's parameter gradients
// equal, bit for bit, those of a model built fresh,
// each block given a workspace of its own, and fed that round alone: nothing
// one block or one round leaves in the shared workspace reaches another.
// Plain blocks, Swin blocks (shifted and not) and tensor-parallel blocks at 2
// ranks, each rank's model owning its own workspace.
func TestSharedBlockWorkspaceCarriesNothingBetweenRounds(t *testing.T) {
	base := Arch{
		Config: core.Config{Channels: 4, ImgH: 8, ImgW: 8, Patch: 2, Embed: 8, Heads: 2, Kind: core.KindLinear, Seed: 19},
		Depth:  3,
	}
	plain, swin := base, base
	plain.MetaTokens = 1
	swin.SwinWindow = 2
	for _, c := range []struct {
		name string
		a    Arch
	}{{"plain", plain}, {"swin", swin}} {
		t.Run(c.name, func(t *testing.T) {
			br := newBlockRounds(c.a)
			m := NewSerial(c.a)
			if err := sharesOneWorkspace(m); err != nil {
				t.Fatal(err)
			}
			for r := range br.xs {
				want := br.round(unshared(NewSerial(c.a)), r, 0, c.a.Channels)
				grads := br.round(m, r, 0, c.a.Channels)
				if err := diffRound(fmt.Sprintf("round %d", r), grads, want); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	t.Run("tp", func(t *testing.T) {
		br := newBlockRounds(plain)
		_, err := comm.Run(2, func(c *comm.Communicator) error {
			m := NewDistributed(plain, c, true)
			lo, hi := m.Stage.(*DCHAGStage).ChannelBounds()
			errs := []error{sharesOneWorkspace(m)}
			for r := range br.xs {
				want := br.round(unshared(NewDistributed(plain, c, true)), r, lo, hi)
				grads := br.round(m, r, lo, hi)
				errs = append(errs, diffRound(fmt.Sprintf("rank %d round %d", c.Rank(), r), grads, want))
			}
			return errors.Join(errs...)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockStackSteadyStateAllocs pins that borrowing the shared workspace
// allocates nothing once it has grown: a warm Forward+Backward through a
// model's plain or Swin block stack makes no allocation.
func TestBlockStackSteadyStateAllocs(t *testing.T) {
	for _, window := range []int{0, 2} {
		a := Arch{
			Config: core.Config{Channels: 4, ImgH: 8, ImgW: 8, Patch: 2, Embed: 8, Heads: 2, Kind: core.KindLinear, Seed: 21},
			Depth:  3, SwinWindow: window,
		}
		m := NewSerial(a)
		rng := tensor.NewRNG(22)
		x := tensor.Randn(rng, 2, a.Tokens(), a.Embed)
		d := tensor.Randn(rng, 2, a.Tokens(), a.Embed)
		step := func() {
			h := x
			for _, blk := range m.Blocks {
				h = blk.Forward(h)
			}
			g := d
			for i := len(m.Blocks) - 1; i >= 0; i-- {
				g = m.Blocks[i].Backward(g)
			}
		}
		step()
		if n := testing.AllocsPerRun(10, step); n != 0 {
			t.Errorf("swin window %d: the block stack allocates %.1f times per step in steady state", window, n)
		}
	}
}
