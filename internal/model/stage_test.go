package model

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/comm"
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

// oneStage builds the baseline's channel stage: D-CHAG at one partition on
// one rank, one aggregation module over every channel.
func oneStage(cfg core.Config) *DCHAGStage { return NewDCHAGStage(cfg, comm.NewGroup(1).Comm(0), 1) }

// TestSerialStageSteadyStateAllocs pins the stage's scratch contract on the
// one-partition stage (no comm in the count): a warm Forward, Backward and
// F32 Infer allocate nothing, for flat and two-level trees of every kind.
func TestSerialStageSteadyStateAllocs(t *testing.T) {
	for _, kind := range []core.LayerKind{core.KindCross, core.KindLinear} {
		for _, tree := range []int{0, 3} {
			cfg := core.Config{Channels: 9, ImgH: 8, ImgW: 8, Patch: 2, Embed: 16, Heads: 2, Tree: tree, Kind: kind, Seed: 3}
			s := oneStage(cfg)
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
// the baseline's one-partition stage, live heap and nothing excluded, after
// a Forward, a Backward and an Infer. Tokens are the channel tokens' size
// [B, C, T, E].
//
// A linear-aggregation stage folds the tokenizer into its first level and
// holds none of them, only terms a factor E/P² or C smaller: the
// tokenizer's im2col cache (B*C*H*W values, a sixteenth of a token tensor at
// E 64) and group-sized buffers (level outputs, the two-token second level,
// the first level's folded-backward scratch); 0.32 of a token tensor in
// all, 0.35 while each first-level group's output gradient was copied out
// of the second level's row-major input gradient into a buffer of its own,
// 0.37 while its backward copied the one-column output gradient,
// 0.47–0.49 while it formed the image gradient, 2.00 while it wrote
// its group inputs and their gradient. Its Infer adds less than a quarter
// of one. A cross-attention stage folds the tokenizer into its first
// level's projections and writes no group input: it holds one group's Q, K
// and V at a time (1.5 token tensors at two groups), in one buffer every
// pass borrows and the backward fills again and then overwrites with their
// gradients, so the stage holds at least that, and its Infer adds only the
// pooled attention's scratch and its patches, at most 0.6; the whole stage
// holds at most 4.1 (4.05, 0.55 of them Infer's; 4.08 while each group's
// output gradient was copied into a buffer of its own; 5.73 while the attention's
// backward wrote dQ, dK and dV into three buffers of their own, 5.75 while
// its backward copied the one-column output
// gradient, 7.25 and 2.05 while Infer kept a Q/K/V buffer of its own,
// 9.02 while every group kept its Q, K and V, 12.60 and 4.44 while it wrote
// group inputs, 16.72 while each first-level aggregator kept its own
// backward scratch instead of borrowing the level's workspace).
func TestSerialStageHoldsThreeTokenTensors(t *testing.T) {
	for _, kind := range []core.LayerKind{core.KindLinear, core.KindCross} {
		t.Run("kind="+kind.String(), func(t *testing.T) {
			cfg := core.Config{Channels: 40, ImgH: 16, ImgW: 16, Patch: 2, Embed: 64, Heads: 4, Tree: 2, Kind: kind, Seed: 5}
			const batch = 4
			rng := tensor.NewRNG(6)
			x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
			d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
			var trained, held float64
			// The first round also grows the process-wide panel pool behind the
			// larger products; the second stage's round shows the stage alone.
			for round := 0; round < 2; round++ {
				s := oneStage(cfg)
				before := liveHeap()
				s.Forward(x)
				s.Backward(d)
				trained = float64(liveHeap() - before)
				s.Infer(x)
				held = float64(liveHeap() - before)
				runtime.KeepAlive(s)
			}
			tokens := float64(8 * batch * cfg.Channels * cfg.Tokens() * cfg.Embed)
			inferred := (held - trained) / tokens
			t.Logf("stage holds %.2f token tensors, %.2f of them added by Infer", held/tokens, inferred)
			if kind == core.KindCross {
				if held < 1.5*tokens {
					t.Fatalf("stage holds %.2f token tensors, under the 1.5 of one group's Q, K and V: the measurement missed the stage", held/tokens)
				}
				if inferred > 0.6 || held > 4.1*tokens {
					t.Fatalf("stage holds %.2f token tensors, %.2f of them added by Infer; want at most 4.1 and 0.6", held/tokens, inferred)
				}
				return
			}
			if held > 0.4*tokens {
				t.Fatalf("stage holds %.2f token tensors after one round, want at most 0.4: the linear stage wrote channel tokens", held/tokens)
			}
			if cache := float64(8 * len(x.Data)); held < cache {
				t.Fatalf("stage holds %.2f MB, under the %.2f MB of its patches: the measurement missed the stage's scratch", held/1e6, cache/1e6)
			}
			if inferred > 0.25 {
				t.Fatalf("Infer adds %.2f token tensors, want under a quarter: the linear stage wrote its group inputs", inferred)
			}
		})
	}
}

// liveHeap collects garbage and returns the bytes that cycle marked live.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestSerialDCHAGStageHeldAfterTraining measures the live heap one Forward
// and one Backward leave behind in the D-CHAG stage on one rank, in token
// tensors [B, C, T, E]: the 4-partition stage hsi_serial trains at its shape
// (64 channels, E 32, batch 2), for both kinds and a flat and a two-level
// tree, and a wx_tp2dp2 rank's linear stage (40 channels, E 64, 2
// partitions, batch 2). The stage owns one backward workspace per tree
// level, which every partition's aggregators of that level borrow in turn;
// before that, every aggregator kept its own backward scratch and every
// group's input gradient lived until the last partition had run. No stage
// writes group inputs or their gradient: the first level folds the
// tokenizer in; no stage forms the image gradient, and a cross stage keeps
// one group's Q, K and V at a time, formed again in the backward, which
// writes their gradients over them; the final layer forms the input
// gradient of the rank's own partition tokens only, and at Tree 2 each
// first-level group reads its slot of the reducer's input gradient in
// place. At the hsi shape a cross stage holds 3.81 and 3.26 (3.81 and 3.27
// while each group's output gradient was copied into a buffer of its own;
// 4.76 and 3.95 while the attention's backward wrote dQ, dK and dV into
// buffers of their own and the final layer formed its whole input
// gradient; 4.83 and 3.99 while each partial module kept its own
// token-gradient buffer; 7.40 and 6.85 while every group kept its Q, K and
// V and the image gradient was formed, 8.27 and 7.71 before its fold), a
// linear one 0.60 and 0.81 (0.60 and 0.83; 0.80 and 1.03; 0.86 and 1.08;
// 1.03 and 1.22 with the image gradient, 2.31 and 2.47 before its fold);
// the wx_tp2dp2 rank's stage holds 0.46 (1.22 MB; 0.64 and 1.68 MB; 0.69
// and 1.81 MB; 0.80 and 2.09 MB with the image gradient). The ceilings are
// the measured values rounded up.
func TestSerialDCHAGStageHeldAfterTraining(t *testing.T) {
	for _, c := range []struct {
		shape                  string // prefixes the subtest name; the hsi shape goes unnamed
		kind                   core.LayerKind
		channels, embed, parts int
		tree                   int
		parent, within         float64 // token tensors held: the parent figure below, ceiling now
		parentIs               string
	}{
		{"", core.KindCross, 64, 32, 4, 0, 13.44, 3.9, "before the shared workspaces"},
		{"", core.KindCross, 64, 32, 4, 2, 14.12, 3.3, "before the shared workspaces"},
		{"", core.KindLinear, 64, 32, 4, 0, 3.19, 0.7, "before the shared workspaces"},
		{"", core.KindLinear, 64, 32, 4, 2, 3.56, 0.9, "before the shared workspaces"},
		{"wx_rank", core.KindLinear, 40, 64, 2, 0, 2.31, 0.5, "(6.07 MB) before the linear fold"},
	} {
		name := fmt.Sprintf("kind=%s/tree=%d", c.kind, c.tree)
		if c.shape != "" {
			name = c.shape + "/" + name
		}
		t.Run(name, func(t *testing.T) {
			cfg := core.Config{Channels: c.channels, ImgH: 16, ImgW: 16, Patch: 2, Embed: c.embed, Heads: 4, Tree: c.tree, Kind: c.kind, Seed: 1}
			const batch = 2
			rng := tensor.NewRNG(8)
			x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
			d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
			var held float64
			// The first round also grows the process-wide panel pool; the
			// second stage's round shows the stage alone.
			for round := 0; round < 2; round++ {
				s := NewDCHAGStage(cfg, comm.NewGroup(1).Comm(0), c.parts)
				before := liveHeap()
				s.Forward(x)
				s.Backward(d)
				held = float64(liveHeap() - before)
				runtime.KeepAlive(s)
			}
			tokens := held / float64(8*batch*cfg.Channels*cfg.Tokens()*cfg.Embed)
			t.Logf("holds %.2f token tensors after Forward+Backward (%.2f MB); %.2f %s", tokens, held/1e6, c.parent, c.parentIs)
			if tokens > c.within {
				t.Fatalf("stage holds %.2f token tensors after Forward+Backward, want at most %.2f", tokens, c.within)
			}
		})
	}
}

// stageHeldPerRank runs one Forward and one Backward of the D-CHAG stage
// over cfg at ranks ranks and the given partition count, batch 2, and
// returns the live heap they leave behind in MB per rank: the goroutine
// ranks share one heap and hold equal shards. The first round also grows
// the process-wide panel pool; the second round's stages show the stage
// alone.
func stageHeldPerRank(t *testing.T, cfg core.Config, ranks, partitions int) float64 {
	t.Helper()
	const batch = 2
	rng := tensor.NewRNG(8)
	x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
	d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
	var held float64
	for round := 0; round < 2; round++ {
		var before uint64
		_, err := comm.Run(ranks, func(cm *comm.Communicator) error {
			s := NewDCHAGStage(cfg, cm, partitions)
			xs := tensor.SliceAxis(x, 1, s.ChLo, s.ChHi)
			cm.Barrier()
			if cm.Rank() == 0 {
				before = liveHeap()
			}
			cm.Barrier()
			s.Forward(xs)
			s.Backward(d)
			cm.Barrier()
			if cm.Rank() == 0 {
				held = float64(liveHeap() - before)
			}
			cm.Barrier()
			runtime.KeepAlive(s)
			runtime.KeepAlive(xs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return held / float64(ranks) / 1e6
}

// TestLinearStageMemoryGrid is the paper's per-rank memory claim for
// D-CHAG-L (its memory-per-component figure), measured: the live heap one
// Forward and one Backward leave behind per rank, at batch 2, 16x16 pixels,
// patch 2, E 32, a flat tree and no mask, over channels 64, 128, 256 and
// 512 and (ranks, P) of (1, 1) — the baseline, one linear module over every
// channel — (1, 4), (2, 2) and (4, 4). The ceilings are the measured values
// rounded up to the next tenth of a MB, plus a tenth.
//
// The paper's ordering — the baseline holds the most, P partitions on one
// rank less, P ranks less again — holds here only in part, and the test
// asserts the part that does: P ranks hold less than P partitions on one
// rank at every channel count, and the baseline grows faster per channel
// doubling than the 4-rank stage, so P ranks hold more than the baseline at
// 64 and 128 channels and less at 256 and 512: the test pins that
// crossover, between 128 and 256 channels. A linear stage that writes no
// token and forms no image gradient keeps only its patches and
// channel-sized scratch, 0.36 MB at 64 channels and 2.66 at 512 for the
// baseline; P partitions keep, on every rank, the final cross-attention
// layer over P tokens, and that replicated layer outweighs the rest of the
// stage below a couple of hundred channels (P partitions on one rank hold
// more than the baseline at every count, 1.25 against 0.36 MB at 64
// channels). While the final layer's backward wrote dQ, dK and dV into
// buffers of their own and formed the input gradient of every partition's
// token, the 64-channel row read 0.36, 1.67, 0.88 and 1.38 MB, 256 channels
// 1.35, 2.51, 1.37 and 1.63, and the crossover sat between 256 and 512
// channels. With the image gradient
// still formed, the 64-channel row read 1.02, 2.15, 1.21 and 1.56 MB and
// 256 channels 3.77, 4.02, 2.58 and 2.25: P ranks held less than the
// baseline from 128 channels up. Before the linear first level folded the
// tokenizer in, the 64-channel row read 5.10, 5.13, 3.35 and 2.70 MB
// (ROADMAP's scratch grid) or 4.89, 4.84, 3.18 and 2.58 (this test on the
// commit before the fold), 256 channels 19.06, 14.29, 10.26 and 6.12.
func TestLinearStageMemoryGrid(t *testing.T) {
	points := [4]struct{ ranks, partitions int }{{1, 1}, {1, 4}, {2, 2}, {4, 4}}
	rows := []struct {
		channels int
		within   [4]float64 // MB per rank at each point: the ceilings
	}{
		{64, [4]float64{0.5, 1.4, 0.8, 1.0}},  // 0.36, 1.25, 0.62, 0.86 measured; 0.36, 1.67, 0.88, 1.38 with the whole final-layer gradient
		{128, [4]float64{0.8, 1.7, 0.9, 1.1}}, // 0.69, 1.53, 0.78, 0.94; 0.69, 1.95, 1.04, 1.46
		{256, [4]float64{1.5, 2.2, 1.3, 1.2}}, // 1.35, 2.08, 1.11, 1.10; 1.35, 2.51, 1.37, 1.63
		{512, [4]float64{2.8, 3.3, 1.9, 1.6}}, // 2.66, 3.20, 1.76, 1.43; 2.66, 3.62, 2.03, 1.95
	}
	mb := make([][4]float64, len(rows))
	for r, c := range rows {
		cfg := core.Config{Channels: c.channels, ImgH: 16, ImgW: 16, Patch: 2, Embed: 32, Heads: 4, Kind: core.KindLinear, Seed: 1}
		for i, pt := range points {
			mb[r][i] = stageHeldPerRank(t, cfg, pt.ranks, pt.partitions)
			if mb[r][i] > c.within[i] {
				t.Errorf("%d channels, %d ranks, P %d: %.2f MB per rank, want at most %.2f", c.channels, pt.ranks, pt.partitions, mb[r][i], c.within[i])
			}
		}
		m := mb[r]
		t.Logf("%d channels, MB per rank: baseline %.2f, P 4 on one rank %.2f, 2 ranks %.2f, 4 ranks %.2f", c.channels, m[0], m[1], m[2], m[3])
		if !(m[2] < m[1] && m[3] < m[1]) {
			t.Errorf("%d channels: P ranks hold %.2f and %.2f MB per rank, not less than P partitions on one rank (%.2f)", c.channels, m[2], m[3], m[1])
		}
		switch c.channels {
		case 64, 128:
			if !(m[2] > m[0] && m[3] > m[0]) {
				t.Errorf("%d channels: P ranks hold %.2f and %.2f MB per rank, not more than the baseline (%.2f): the replicated final layer no longer outweighs the stage", c.channels, m[2], m[3], m[0])
			}
		case 256, 512:
			if !(m[2] < m[0] && m[3] < m[0]) {
				t.Errorf("%d channels: P ranks hold %.2f and %.2f MB per rank, not less than the baseline (%.2f)", c.channels, m[2], m[3], m[0])
			}
		}
		if r > 0 {
			base, dist := m[0]/mb[r-1][0], m[3]/mb[r-1][3]
			if !(base > dist) {
				t.Errorf("from %d to %d channels the baseline grows x%.2f, the 4-rank stage x%.2f: want the baseline faster", rows[r-1].channels, c.channels, base, dist)
			}
		}
	}
}

// TestBlockStackHeldAfterTraining measures the live heap one Forward and one
// Backward leave behind in a model's transformer blocks at a wx_tp2dp2
// rank's shape (E 64, 4 heads, depth 8, 64 tokens, batch 2), serially and
// under tensor parallelism at 2 ranks (both ranks' stacks, per rank). What
// stays is the blocks' forward activations and one backward workspace per
// rank, which every block borrows in turn; before the shared workspace each
// block kept its own backward scratch. The ceilings are the measured values
// rounded up.
func TestBlockStackHeldAfterTraining(t *testing.T) {
	a := Arch{
		Config: core.Config{Channels: 4, ImgH: 16, ImgW: 16, Patch: 2, Embed: 64, Heads: 4, Kind: core.KindLinear, Seed: 1},
		Depth:  8,
	}
	const batch = 2
	rng := tensor.NewRNG(9)
	x := tensor.Randn(rng, batch, a.Tokens(), a.Embed)
	d := tensor.Randn(rng, batch, a.Tokens(), a.Embed)
	// stack runs one Forward+Backward through m's blocks alone.
	stack := func(m *FoundationModel) {
		h := x
		for _, blk := range m.Blocks {
			h = blk.Forward(h)
		}
		g := d
		for i := len(m.Blocks) - 1; i >= 0; i-- {
			g = m.Blocks[i].Backward(g)
		}
	}
	for _, c := range []struct {
		ranks          int
		parent, within float64 // MB held per rank: before the shared workspace, ceiling now
	}{
		{1, 24.17, 12.8},
		{2, 16.82, 8.3},
	} {
		t.Run(fmt.Sprintf("tp=%d", c.ranks), func(t *testing.T) {
			var held float64
			// The first round also grows the process-wide panel pool; the
			// second round's models show the stacks alone.
			for round := 0; round < 2; round++ {
				if c.ranks == 1 {
					m := NewSerial(a)
					before := liveHeap()
					stack(m)
					held = float64(liveHeap() - before)
					runtime.KeepAlive(m)
					continue
				}
				var before uint64
				_, err := comm.Run(c.ranks, func(cm *comm.Communicator) error {
					m := NewDistributed(a, cm, true)
					cm.Barrier()
					if cm.Rank() == 0 {
						before = liveHeap()
					}
					cm.Barrier()
					stack(m)
					cm.Barrier()
					if cm.Rank() == 0 {
						held = float64(liveHeap() - before)
					}
					cm.Barrier()
					runtime.KeepAlive(m)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			perRank := held / float64(c.ranks) / 1e6
			t.Logf("block stack holds %.2f MB per rank after Forward+Backward; %.2f before the shared workspace", perRank, c.parent)
			if perRank > c.within {
				t.Fatalf("block stack holds %.2f MB per rank after Forward+Backward, want at most %.2f", perRank, c.within)
			}
		})
	}
}

// BenchmarkChannelStage times the one-partition stage's Forward, Backward
// and F32 Infer at the benchmark workloads' per-rank shapes. The backward
// consumes what its forward left (the pooled attention writes its gradients
// over Q/K/V), so each bwd iteration runs the forward first, untimed.
func BenchmarkChannelStage(b *testing.B) {
	for _, sh := range stageShapes {
		rng := tensor.NewRNG(7)
		s := oneStage(sh.cfg)
		s.SetInferDType(tensor.F32)
		x := tensor.Randn(rng, sh.batch, sh.cfg.Channels, sh.cfg.ImgH, sh.cfg.ImgW)
		d := tensor.Randn(rng, sh.batch, sh.cfg.Tokens(), sh.cfg.Embed)
		fwd := func() { s.Forward(x) }
		for _, pass := range []struct {
			name       string
			prep, step func()
		}{{"fwd", nil, fwd}, {"bwd", fwd, func() { s.Backward(d) }}, {"infer_f32", nil, func() { s.Infer(x) }}} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, pass.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if pass.prep != nil {
						b.StopTimer()
						pass.prep()
						b.StartTimer()
					}
					pass.step()
				}
			})
		}
	}
}
