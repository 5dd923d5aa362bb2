package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Isolated probes fill in what the seams of a whole step cannot split: a
// standalone layer, built with its public constructor at the shape one rank
// of the workload gives it, called reps times. Each reports the median.

// probePair times fwd and bwd alternately, after one untimed round that
// grows the layers' scratch buffers.
func probePair(reps int, fwd, bwd func()) (fwdMs, bwdMs float64) {
	fwd()
	bwd()
	var f, b []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fwd()
		t1 := time.Now()
		bwd()
		f = append(f, ms(t1.Sub(t0)))
		b = append(b, ms(time.Since(t1)))
	}
	return median(f), median(b)
}

func (r *run) reps() int {
	if r.quick {
		return 3
	}
	return probeReps
}

// probeStage times the three parts of one rank's channel stage: the patch
// embedding over the rank's channels, the rank's partial aggregation
// modules back to back, and the final shared cross-attention layer.
func (r *run) probeStage(s *trainSpec) {
	a := s.arch
	ranks, b := 1, s.batch
	if !s.serial {
		ranks, b = s.tp, s.batch/s.dp
	}
	cl, k := a.Channels/ranks, a.Partitions/ranks
	t, e := a.Tokens(), a.Embed
	rng := tensor.NewRNG(r.seed)

	tok := nn.NewPatchEmbedShard("probe.tok", 0, cl, a.ImgH, a.ImgW, a.Patch, e, 1)
	x := tensor.Randn(rng, b, cl, a.ImgH, a.ImgW)
	dTok := tensor.Randn(rng, b, cl, t, e)
	f, w := probePair(r.reps(), func() { tok.Forward(x) }, func() { tok.Backward(dTok) })
	r.set("nn.patch_embed_fwd_ms", f)
	r.set("nn.patch_embed_bwd_ms", w)

	ck := a.Channels / a.Partitions
	var partials []*core.HierarchicalAggregator
	for j := 0; j < k; j++ {
		partials = append(partials, core.NewHierarchicalAggregator(fmt.Sprintf("probe.partial%d", j),
			core.BuildTreePlan(ck, a.Tree), a.Kind, e, a.Heads, int64(2+j)))
	}
	in := tensor.Randn(rng, b, ck, t, e)
	dOut := tensor.Randn(rng, b, t, e)
	f, w = probePair(r.reps(), func() {
		for _, p := range partials {
			p.Forward(in)
		}
	}, func() {
		for _, p := range partials {
			p.Backward(dOut)
		}
	})
	r.set("core.partial_agg_fwd_ms", f)
	r.set("core.partial_agg_bwd_ms", w)

	final := core.NewCrossAttnAggregator("probe.final", a.Partitions, e, a.Heads, 1)
	seq := tensor.Randn(rng, b*t, a.Partitions, e)
	dSeq := tensor.Randn(rng, b*t, e)
	f, w = probePair(r.reps(), func() { final.Forward(seq) }, func() { final.Backward(dSeq) })
	r.set("core.final_agg_fwd_ms", f)
	r.set("core.final_agg_bwd_ms", w)
}

// probeGemm times a gemmN-cubed matrix product from one caller in f64 and
// f32, and in f64 from two concurrent callers — the regime of two rank
// goroutines sharing the cores — reporting the rate each caller saw.
func (r *run) probeGemm() {
	n := gemmN
	flop := 2 * float64(n) * float64(n) * float64(n)
	rate := func(callers int, mul func(dst, a, b *tensor.Tensor) *tensor.Tensor) float64 {
		var mu sync.Mutex
		var all []float64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := tensor.NewRNG(r.seed + int64(c))
				a, b := tensor.Randn(rng, n, n), tensor.Randn(rng, n, n)
				dst := mul(nil, a, b)
				var mine []float64
				for i := 0; i < r.reps(); i++ {
					t0 := time.Now()
					mul(dst, a, b)
					mine = append(mine, flop/time.Since(t0).Seconds()/1e9)
				}
				mu.Lock()
				all = append(all, mine...)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		return median(all)
	}
	r.set("tensor.gemm_f64_gflops", rate(1, tensor.MatMulInto))
	r.set("tensor.gemm_f32_gflops", rate(1, tensor.MatMulF32Into))
	r.set("tensor.gemm_f64_gflops_x2", rate(2, tensor.MatMulInto))
}

// probeInfer times the serving model's no-grad forward on its own, outside
// the engine: the same Source built on a group of cfg.Ranks ranks, every
// rank calling Infer on its channel shard in step, at batch 1 and at the
// engine's full batch. Rank 0's times are reported.
func (r *run) probeInfer(s *serveSpec) error {
	a := s.arch
	times := map[int][]float64{}
	_, err := comm.Run(s.cfg.Ranks, func(c *comm.Communicator) error {
		m, err := serve.FromArch(a).Build(c)
		if err != nil {
			return err
		}
		m.SetInferDType(s.cfg.DType)
		lo, hi := 0, a.Channels
		if st, ok := m.Stage.(*model.DCHAGStage); ok {
			lo, hi = st.ChannelBounds()
		}
		rng := tensor.NewRNG(r.seed)
		for _, b := range []int{1, s.cfg.MaxBatch} {
			x := tensor.SliceAxis(tensor.Randn(rng, b, a.Channels, a.ImgH, a.ImgW), 1, lo, hi)
			m.Infer(x, nil)
			for i := 0; i < r.reps(); i++ {
				t0 := time.Now()
				m.Infer(x, nil)
				if c.Rank() == 0 {
					times[b] = append(times[b], ms(time.Since(t0)))
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("model.infer_ms_b1", median(times[1]))
	r.set("model.infer_ms_b8", median(times[s.cfg.MaxBatch]))
	return nil
}
