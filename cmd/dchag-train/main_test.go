package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/train"
)

// TestCheckFlags: every flag combination the run would silently ignore,
// misread or die on is refused; the plain serial, D-CHAG, hybrid (at one
// rank too: the 1×dp mesh) and elastic runs pass.
func TestCheckFlags(t *testing.T) {
	// serial is the default run's flags at -ranks 1.
	serial := runFlags{task: "mae", kind: "L", channels: 32, embed: 16, depth: 2, ranks: 1, dp: 1, failRank: -1, failStep: -1, lr: 3e-3}
	for _, tc := range []struct {
		name string
		set  func(f *runFlags)
		ok   bool
	}{
		{"serial", func(f *runFlags) {}, true},
		{"kind C", func(f *runFlags) { f.kind = "C" }, true},
		{"kind P", func(f *runFlags) { f.kind = "P" }, false},
		{"kind X", func(f *runFlags) { f.kind = "X" }, false},
		{"dchag", func(f *runFlags) { f.ranks = 2 }, true},
		{"hybrid", func(f *runFlags) { f.ranks, f.dp = 2, 2 }, true},
		{"elastic", func(f *runFlags) { f.ranks, f.elastic = 2, true }, true},
		{"elastic with fault", func(f *runFlags) { f.ranks, f.elastic, f.failRank, f.failStep = 4, true, 1, 3 }, true},
		{"embed 2", func(f *runFlags) { f.embed = 2 }, true},
		{"tree 1", func(f *runFlags) { f.tree = 1 }, true},
		{"tree 3", func(f *runFlags) { f.tree = 3 }, true},
		{"depth 1", func(f *runFlags) { f.depth = 1 }, true},
		{"channels 1", func(f *runFlags) { f.channels = 1 }, true},
		{"weather ignores channels", func(f *runFlags) { f.task, f.channels = "weather", 0 }, true},
		{"embed 0", func(f *runFlags) { f.embed = 0 }, false},
		{"embed 5", func(f *runFlags) { f.embed = 5 }, false},
		{"embed -4", func(f *runFlags) { f.embed = -4 }, false},
		{"depth 0", func(f *runFlags) { f.depth = 0 }, false},
		{"depth -1", func(f *runFlags) { f.depth = -1 }, false},
		{"channels 0", func(f *runFlags) { f.channels = 0 }, false},
		{"tree -2", func(f *runFlags) { f.tree = -2 }, false},
		{"ranks 0", func(f *runFlags) { f.ranks = 0 }, false},
		{"ranks -1", func(f *runFlags) { f.ranks = -1 }, false},
		{"dp 0", func(f *runFlags) { f.ranks, f.dp = 2, 0 }, false},
		{"dp over serial", func(f *runFlags) { f.dp = 2 }, true},
		{"elastic serial", func(f *runFlags) { f.elastic = true }, false},
		{"load", func(f *runFlags) { f.ranks, f.load = 2, true }, true},
		{"elastic with load", func(f *runFlags) { f.ranks, f.elastic, f.load = 2, true, true }, false},
		{"fail-rank without elastic", func(f *runFlags) { f.ranks, f.failRank, f.failStep = 2, 1, 1 }, false},
		{"fail-step alone without elastic", func(f *runFlags) { f.ranks, f.failStep = 2, 1 }, false},
		{"fail-rank alone under elastic", func(f *runFlags) { f.ranks, f.elastic, f.failRank = 2, true, 1 }, false},
		{"lr 1", func(f *runFlags) { f.lr = 1 }, true},
		{"lr 0", func(f *runFlags) { f.lr = 0 }, false},
		{"lr -1", func(f *runFlags) { f.lr = -1 }, false},
		{"lr NaN", func(f *runFlags) { f.lr = math.NaN() }, false},
		{"lr +Inf", func(f *runFlags) { f.lr = math.Inf(1) }, false},
	} {
		f := serial
		tc.set(&f)
		if _, err := checkFlags(f); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%+v) = %v, want ok=%v", tc.name, f, err, tc.ok)
		}
	}
}

// TestCheckPartitions: a partition count the stage cannot be built with —
// more partitions than channels, below 1, or not divisible by the ranks — is
// refused before the run instead of panicking in a rank.
func TestCheckPartitions(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		partitions, channels, ranks int
		ok                          bool
	}{
		{"baseline", 1, 32, 1, true},
		{"serial equivalent", 4, 32, 1, true},
		{"one per rank", 2, 32, 2, true},
		{"one channel each", 4, 4, 2, true},
		{"weather default", 4, 80, 4, true},
		{"one channel, two ranks", 2, 1, 2, false},
		{"weather -partitions 100", 100, 80, 4, false},
		{"more partitions than channels", 8, 4, 1, false},
		{"zero", 0, 32, 1, false},
		{"negative", -2, 32, 2, false},
		{"not divisible by ranks", 3, 32, 2, false},
	} {
		if err := checkPartitions(tc.partitions, tc.channels, tc.ranks); (err == nil) != tc.ok {
			t.Errorf("%s: checkPartitions(%d, %d, %d) = %v, want ok=%v", tc.name, tc.partitions, tc.channels, tc.ranks, err, tc.ok)
		}
	}
}

// TestRunTPViT trains 2 ranks with tensor-parallel ViT blocks for 2 steps:
// the blocks' backward AllReduces are traffic the run reports, not an error.
func TestRunTPViT(t *testing.T) {
	arch := model.Arch{
		Config: core.Config{Channels: 4, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: heads, Kind: core.KindLinear, Seed: 3},
		Depth:  1, MetaTokens: 1, Partitions: 2,
	}
	x := tensor.Randn(tensor.NewRNG(4), 2, arch.Channels, arch.ImgH, arch.ImgW)
	opts := train.Options{Steps: 2, Batch: 2, LR: 3e-3, ClipNorm: 1, MaskRatio: 0.5, Seed: 5}
	if err := run(arch, 2, 1, true, opts, func(int) (*tensor.Tensor, *tensor.Tensor) { return x, x }); err != nil {
		t.Fatal(err)
	}
}

// TestRunDPOverOneRank trains -ranks 1 -dp 2 for 2 steps: the serial
// baseline's data-parallel replicas are the 1×2 mesh, like any other shape.
func TestRunDPOverOneRank(t *testing.T) {
	arch := model.Arch{
		Config: core.Config{Channels: 4, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: heads, Kind: core.KindLinear, Seed: 3},
		Depth:  1, MetaTokens: 1, Partitions: 1,
	}
	x := tensor.Randn(tensor.NewRNG(4), 2, arch.Channels, arch.ImgH, arch.ImgW)
	opts := train.Options{Steps: 2, Batch: 2, LR: 3e-3, ClipNorm: 1, MaskRatio: 0.5, Seed: 5}
	if err := run(arch, 1, 2, false, opts, func(int) (*tensor.Tensor, *tensor.Tensor) { return x, x }); err != nil {
		t.Fatal(err)
	}
}
