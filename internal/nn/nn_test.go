package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestPatchEmbedShardMatchesFullSlice(t *testing.T) {
	const (
		channels = 6
		imgH     = 4
		imgW     = 8
		patch    = 2
		embed    = 5
		seed     = 77
	)
	full := NewPatchEmbed("tok", channels, imgH, imgW, patch, embed, seed)
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 2, channels, imgH, imgW)
	yFull := full.Forward(x)

	// Shards [0,2), [2,5), [5,6) must reproduce the matching channel slices.
	bounds := [][2]int{{0, 2}, {2, 5}, {5, 6}}
	for _, bd := range bounds {
		shard := NewPatchEmbedShard("tok", bd[0], bd[1], imgH, imgW, patch, embed, seed)
		xs := tensor.SliceAxis(x, 1, bd[0], bd[1])
		ys := shard.Forward(xs)
		want := tensor.SliceAxis(yFull, 1, bd[0], bd[1])
		if tensor.MaxAbsDiff(ys, want) > 1e-12 {
			t.Fatalf("shard [%d,%d) output differs from full slice", bd[0], bd[1])
		}
	}
}

func TestChannelEmbedShardMatchesFullSlice(t *testing.T) {
	const (
		channels = 5
		embed    = 4
		seed     = 88
	)
	full := NewChannelEmbed("ch", channels, embed, seed)
	fullTok := NewPatchEmbed("tok", channels, 4, 4, 2, embed, seed+1)
	rng := tensor.NewRNG(6)
	x := tensor.Randn(rng, 2, channels, 4, 4)
	yFull := tensor.New(2, channels, 4, embed)
	fullTok.Tokenize(x, ChannelViews(nil, yFull), full, false)
	plain := fullTok.Forward(x)
	for i, v := range yFull.Data {
		if want := plain.Data[i] + full.Table.W.Data[i/embed/4%channels*embed+i%embed]; v != want {
			t.Fatalf("token value %d = %v, want tokenizer output plus the channel's row = %v", i, v, want)
		}
	}
	shard := NewChannelEmbedShard("ch", 2, 4, embed, seed)
	shardTok := NewPatchEmbedShard("tok", 2, 4, 4, 4, 2, embed, seed+1)
	ys := tensor.New(2, 2, 4, embed)
	shardTok.Tokenize(tensor.SliceAxis(x, 1, 2, 4), ChannelViews(nil, ys), shard, false)
	if tensor.MaxAbsDiff(ys, tensor.SliceAxis(yFull, 1, 2, 4)) != 0 {
		t.Fatal("channel-embed shard differs from full slice")
	}
}

func TestPatchEmbedTokenValues(t *testing.T) {
	// One channel, 2x2 image, patch 2 -> a single token equal to
	// patchvec @ W + b.
	p := NewPatchEmbed("tok", 1, 2, 2, 2, 3, 9)
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	y := p.Forward(x)
	if y.Shape[0] != 1 || y.Shape[1] != 1 || y.Shape[2] != 1 || y.Shape[3] != 3 {
		t.Fatalf("shape = %v", y.Shape)
	}
	for j := 0; j < 3; j++ {
		want := 0.0
		for i := 0; i < 4; i++ {
			want += x.Data[i] * p.Weight.W.At(0, i, j)
		}
		want += p.Bias.W.At(0, j)
		if math.Abs(y.Data[j]-want) > 1e-12 {
			t.Fatalf("token[%d] = %v, want %v", j, y.Data[j], want)
		}
	}
}

func TestMetaTokenPrepends(t *testing.T) {
	m := NewMetaToken("meta", 1, 2, 10)
	x := tensor.FromSlice([]float64{5, 6, 7, 8}, 1, 2, 2)
	y := m.Forward(x)
	if y.Shape[1] != 3 {
		t.Fatalf("shape = %v", y.Shape)
	}
	if y.At(0, 0, 0) != m.Table.W.At(0, 0) {
		t.Fatal("first token must be the meta token")
	}
	if y.At(0, 1, 0) != 5 || y.At(0, 2, 1) != 8 {
		t.Fatal("sequence tokens shifted incorrectly")
	}
}

func TestMaskedMSEEdgeCases(t *testing.T) {
	l := NewMaskedMSELoss()
	pred := tensor.Ones(1, 2, 3)
	target := tensor.New(1, 2, 3)
	// All-zero mask: loss 0, zero grad.
	mask := tensor.New(1, 2)
	if got := l.Forward(pred, target, mask); got != 0 {
		t.Fatalf("empty-mask loss = %v, want 0", got)
	}
	if g := l.Backward(); g.Norm2() != 0 {
		t.Fatal("empty-mask grad must be zero")
	}
	// Full mask equals plain MSE.
	mask = tensor.Ones(1, 2)
	plain := NewMSELoss()
	if math.Abs(l.Forward(pred, target, mask)-plain.Forward(pred, target)) > 1e-12 {
		t.Fatal("full-mask masked MSE must equal MSE")
	}
}

func TestLatWeightedRMSE(t *testing.T) {
	// Identical fields -> zero error.
	a := tensor.Ones(2, 4, 8)
	if LatWeightedRMSE(a, a) != 0 {
		t.Fatal("identical fields must give zero RMSE")
	}
	// Constant offset of d -> RMSE exactly d (weights normalized to mean 1).
	b := tensor.Full(3, 2, 4, 8)
	got := LatWeightedRMSE(a, b)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("constant-offset RMSE = %v, want 2", got)
	}
}

func TestNumParams(t *testing.T) {
	l := NewLinear("l", 3, 4, 1)
	if NumParams(l.Params()) != 3*4+4 {
		t.Fatalf("NumParams = %d", NumParams(l.Params()))
	}
}

func TestSubSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SubSeed(42, i)
		if seen[s] {
			t.Fatalf("subSeed collision at %d", i)
		}
		seen[s] = true
	}
	if SubSeed(1, 0) == SubSeed(2, 0) {
		t.Fatal("different base seeds must differ")
	}
}

func TestAttentionDeterministicInit(t *testing.T) {
	a1 := NewSelfAttention("a", 8, 2, 123)
	a2 := NewSelfAttention("a", 8, 2, 123)
	if tensor.MaxAbsDiff(a1.Wq.Weight.W, a2.Wq.Weight.W) != 0 {
		t.Fatal("same seed must give same init")
	}
	a3 := NewSelfAttention("a", 8, 2, 124)
	if tensor.MaxAbsDiff(a1.Wq.Weight.W, a3.Wq.Weight.W) == 0 {
		t.Fatal("different seeds must differ")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLinear("l", 2, 2, 1).Backward(tensor.New(1, 2))
}

func TestParamsEqualTolerance(t *testing.T) {
	a := NewLinear("l", 2, 2, 1)
	b := NewLinear("l", 2, 2, 1)
	b.Weight.W.Data[0] += 1e-6
	if ParamsEqual(a.Params(), b.Params(), 0) {
		t.Fatal("exact comparison should fail")
	}
	if !ParamsEqual(a.Params(), b.Params(), 1e-3) {
		t.Fatal("tolerant comparison should pass")
	}
	if ParamsEqual(a.Params(), b.Params()[:1], 1) {
		t.Fatal("length mismatch should fail")
	}
}

func TestMarkShardValidatesSlice(t *testing.T) {
	p := NewParam("w", tensor.New(2, 3))
	p.MarkShard("w.logical", 0, []int{6, 3}, 2, 4)
	if p.LogicalKey() != "w.logical" {
		t.Fatalf("LogicalKey = %q", p.LogicalKey())
	}
	if got := p.FullShape(); got[0] != 6 || got[1] != 3 {
		t.Fatalf("FullShape = %v", got)
	}
	whole := NewParam("u", tensor.New(4))
	if whole.LogicalKey() != "u" || whole.FullShape()[0] != 4 {
		t.Fatal("whole params report their own name and shape")
	}
	for _, bad := range []func(){
		func() { NewParam("w", tensor.New(2, 3)).MarkShard("l", 2, []int{6, 3}, 0, 2) }, // axis range
		func() { NewParam("w", tensor.New(2, 3)).MarkShard("l", 0, []int{6, 3}, 4, 8) }, // bounds
		func() { NewParam("w", tensor.New(2, 3)).MarkShard("l", 0, []int{6, 3}, 0, 3) }, // wrong width
		func() { NewParam("w", tensor.New(2, 3)).MarkShard("l", 0, []int{6, 4}, 0, 2) }, // wrong trailing dim
		func() { NewParam("w", tensor.New(2, 3)).MarkShard("l", 0, []int{6}, 0, 2) },    // rank mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid MarkShard must panic")
				}
			}()
			bad()
		}()
	}
}
