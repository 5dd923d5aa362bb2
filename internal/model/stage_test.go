package model

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// stageShapes are one rank's channel stage of each benchmark workload, the
// rank's partitions as first-level groups: hsi_serial, a wx_tp2dp2 rank, and
// a serving rank at the engine's full batch.
var stageShapes = []struct {
	name  string
	batch int
	cfg   core.Config
}{
	{"hsi_train", 2, core.Config{Channels: 64, ImgH: 16, ImgW: 16, Patch: 2, Embed: 32, Heads: 4, Tree: 4, Kind: core.KindCross, Seed: 1}},
	{"wx_train", 2, core.Config{Channels: 40, ImgH: 16, ImgW: 16, Patch: 2, Embed: 64, Heads: 4, Tree: 2, Kind: core.KindLinear, Seed: 1}},
	{"wx_serve", 8, core.Config{Channels: 40, ImgH: 16, ImgW: 16, Patch: 2, Embed: 32, Heads: 4, Tree: 2, Kind: core.KindLinear, Seed: 1}},
}

// TestSerialStageSteadyStateAllocs pins the stage's scratch contract on the
// serial stage (no comm in the count): a warm Forward, Backward and F32 Infer
// allocate nothing, for flat and two-level trees of every kind.
func TestSerialStageSteadyStateAllocs(t *testing.T) {
	for _, kind := range []core.LayerKind{core.KindCross, core.KindLinear, core.KindPerceiver} {
		for _, tree := range []int{0, 3} {
			cfg := core.Config{Channels: 9, ImgH: 8, ImgW: 8, Patch: 2, Embed: 16, Heads: 2, Tree: tree, Kind: kind, Seed: 3}
			s := NewSerialStage(cfg)
			s.SetInferDType(tensor.F32)
			rng := tensor.NewRNG(4)
			x := tensor.Randn(rng, 2, cfg.Channels, cfg.ImgH, cfg.ImgW)
			d := tensor.Randn(rng, 2, cfg.Tokens(), cfg.Embed)
			train := func() { s.Forward(x); s.Backward(d) }
			infer := func() { s.Infer(x) }
			train()
			infer()
			if n := testing.AllocsPerRun(10, train); n != 0 {
				t.Errorf("kind %s tree %d: Forward+Backward allocates %.1f times per step in steady state", kind, tree, n)
			}
			if n := testing.AllocsPerRun(10, infer); n != 0 {
				t.Errorf("kind %s tree %d: Infer allocates %.1f times per call in steady state", kind, tree, n)
			}
		}
	}
}

// TestSerialStageHoldsThreeTokenTensors measures what the paper is about on
// the executed stage: after a Forward, a Backward and an Infer, everything a
// linear-aggregation stage holds — live heap, nothing excluded — is three
// tensors of the channel tokens' size [B, C, T, E] (Forward's group inputs,
// Infer's, and the aggregators' input gradient) plus terms a factor E or C
// smaller: the tokenizer's im2col cache and image gradient (B*C*H*W values
// each) and a score of group-token buffers (B*T*E values each: level
// outputs, the two-token second level, the per-channel gradient gather).
func TestSerialStageHoldsThreeTokenTensors(t *testing.T) {
	cfg := core.Config{Channels: 40, ImgH: 16, ImgW: 16, Patch: 2, Embed: 64, Heads: 4, Tree: 2, Kind: core.KindLinear, Seed: 5}
	const batch = 4
	rng := tensor.NewRNG(6)
	x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
	d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
	live := func() uint64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}} // what that cycle marked
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var held float64
	// The first round also grows the process-wide panel pool behind the
	// larger products; the second stage's round shows the stage alone.
	for round := 0; round < 2; round++ {
		s := NewSerialStage(cfg)
		before := live()
		s.Forward(x)
		s.Backward(d)
		s.Infer(x)
		held = float64(live() - before)
		runtime.KeepAlive(s)
	}
	tokens := float64(8 * batch * cfg.Channels * cfg.Tokens() * cfg.Embed)
	small := 2.5*float64(8*len(x.Data)) + 20*float64(8*len(d.Data))
	if held > 3*tokens+small {
		t.Fatalf("stage holds %.2f MB after one round: %.2f token tensors beyond the %.2f MB allowed for small terms; want at most 3",
			held/1e6, (held-small)/tokens, small/1e6)
	}
	if held < 2.5*tokens {
		t.Fatalf("stage holds %.2f MB, under 2.5 token tensors of %.2f MB: the measurement missed the stage's scratch", held/1e6, tokens/1e6)
	}
}

// BenchmarkChannelStage times the serial stage's Forward, Backward and F32
// Infer at the benchmark workloads' per-rank shapes.
func BenchmarkChannelStage(b *testing.B) {
	for _, sh := range stageShapes {
		rng := tensor.NewRNG(7)
		s := NewSerialStage(sh.cfg)
		s.SetInferDType(tensor.F32)
		x := tensor.Randn(rng, sh.batch, sh.cfg.Channels, sh.cfg.ImgH, sh.cfg.ImgW)
		d := tensor.Randn(rng, sh.batch, sh.cfg.Tokens(), sh.cfg.Embed)
		s.Forward(x)
		for _, pass := range []struct {
			name string
			step func()
		}{{"fwd", func() { s.Forward(x) }}, {"bwd", func() { s.Backward(d) }}, {"infer_f32", func() { s.Infer(x) }}} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, pass.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pass.step()
				}
			})
		}
	}
}
