package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

func init() {
	register(Experiment{ID: "fig13", Title: "D-CHAG gains as model size scales: 7B/15B/26B (paper Fig. 13)", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "26B model with 256/512 channels (paper Fig. 14)", Run: runFig14})
	register(Experiment{ID: "fig15", Title: "Hybrid D-CHAG/TP/FSDP/DP configurations, 7B @ 500 channels (paper Fig. 15)", Run: runFig15})
	register(Experiment{ID: "fig16", Title: "Sustained throughput vs batch scale up to 1,024 GCDs (paper Fig. 16)", Run: runFig16})
}

// runFig13 reproduces the model-size scaling study: memory gains per GPU of
// D-CHAG(+TP) over TP alone for the 7B, 15B and 26B models at the channel
// counts where TP is required.
func runFig13() Result {
	t := &Table{
		Title:   "D-CHAG + TP vs TP alone (per-GPU memory gain)",
		Headers: []string{"model", "channels", "TP", "kind", "baseline GiB", "dchag GiB", "mem gain", "throughput gain"},
	}
	machine := hw.Frontier()
	cal := perfmodel.DefaultCalibration()
	for _, tc := range []struct {
		name string
		chs  []int
		tp   int
	}{
		{"7B", []int{256, 512}, 8},
		{"15B", []int{128, 256}, 8},
		{"26B", []int{64, 128}, 8},
	} {
		shape := perfmodel.Shapes[tc.name]
		for _, ch := range tc.chs {
			wl := perfmodel.ReferenceWorkload(ch)
			base := perfmodel.AnalyzeDefault(shape, wl, perfmodel.Strategy{Method: perfmodel.MethodBaseline, TP: tc.tp})
			for _, kind := range []core.LayerKind{core.KindLinear, core.KindCross} {
				s := perfmodel.Strategy{Method: perfmodel.MethodDCHAG, TP: tc.tp, Tree: 0, Kind: kind}
				r := perfmodel.AnalyzeDefault(shape, wl, s)
				t.Add(tc.name, fmt.Sprint(ch), fmt.Sprint(tc.tp), kind.String(),
					gib(base.TotalMemBytes()), gib(r.TotalMemBytes()),
					pct(perfmodel.MemGainOverBaseline(shape, wl, s, machine, cal)),
					pct(perfmodel.ThroughputGainOverBaseline(shape, wl, s, machine, cal)))
			}
		}
	}
	t.Note("paper: ~30-70%% gains (7B, -L), 10-60%% (7B, -C), >20-50%% (15B), 10-30%% (26B)")
	t.Note("paper: gains grow with channels for fixed model size, shrink as transformer parameters grow")
	return Result{ID: "fig13", Title: "Performance as model size scales", Tables: []*Table{t}}
}

// runFig14 reproduces the 26B study: TP-only is infeasible at 256 channels
// within a node (and marginal beyond), while D-CHAG fits 512 channels below
// 80% of memory.
func runFig14() Result {
	t := &Table{
		Title:   "26B model memory (fraction of 64 GB GCD capacity)",
		Headers: []string{"method", "channels", "GPUs", "tok+agg GiB", "total GiB", "fraction", "status"},
	}
	shape := perfmodel.Shapes["26B"]
	for _, tp := range []int{8, 16, 32} {
		wl := perfmodel.ReferenceWorkload(256)
		r := perfmodel.AnalyzeDefault(shape, wl, perfmodel.Strategy{Method: perfmodel.MethodBaseline, TP: tp})
		t.Add("TP only", "256", fmt.Sprint(tp),
			gib(r.ComponentMemBytes(perfmodel.CompTok)+r.ComponentMemBytes(perfmodel.CompAgg)),
			gib(r.TotalMemBytes()),
			fmt.Sprintf("%.2f", r.TotalMemBytes()/float64(r.Machine.GPUMemBytes)),
			fitMark(r.Fits()))
	}
	for _, tp := range []int{8, 16, 32} {
		for _, ch := range []int{256, 512} {
			wl := perfmodel.ReferenceWorkload(ch)
			s := perfmodel.Strategy{Method: perfmodel.MethodDCHAG, TP: tp, Tree: 0, Kind: core.KindLinear}
			r := perfmodel.AnalyzeDefault(shape, wl, s)
			t.Add("D-CHAG-L + TP", fmt.Sprint(ch), fmt.Sprint(tp),
				gib(r.ComponentMemBytes(perfmodel.CompTok)+r.ComponentMemBytes(perfmodel.CompAgg)),
				gib(r.TotalMemBytes()),
				fmt.Sprintf("%.2f", r.TotalMemBytes()/float64(r.Machine.GPUMemBytes)),
				fitMark(r.Fits()))
		}
	}
	t.Note("paper: TP alone cannot fit 26B@256 (our model: infeasible within a node, marginal at 2+ nodes); D-CHAG fits 26B@512 under 80%% of memory")
	t.Note("paper: D-CHAG tok+agg memory grows slowly with GPUs (model size increases linearly with ranks)")
	return Result{ID: "fig14", Title: "Very large model feasibility", Tables: []*Table{t}}
}

// fig15Configs are the hybrid configurations compared at 16 GCDs (two
// Frontier nodes), 7B model, 500 channels.
func fig15Configs() []perfmodel.Strategy {
	return []perfmodel.Strategy{
		{Method: perfmodel.MethodBaseline, TP: 16},
		{Method: perfmodel.MethodBaseline, TP: 8, FSDP: 2},
		{Method: perfmodel.MethodDCHAG, TP: 8, FSDP: 2, Tree: 0, Kind: core.KindLinear},
		{Method: perfmodel.MethodDCHAG, TP: 8, DP: 2, Tree: 0, Kind: core.KindLinear},
		{Method: perfmodel.MethodDCHAG, TP: 2, FSDP: 8, Tree: 0, Kind: core.KindLinear},
		{Method: perfmodel.MethodDCHAG, TP: 2, FSDP: 4, DP: 2, Tree: 0, Kind: core.KindLinear},
	}
}

// runFig15 reproduces the hybrid optimization study: memory per GPU and
// modeled TFLOPs/sec per node for combinations of D-CHAG, TP, FSDP and DP on
// 16 GCDs with 500-channel images, letting each configuration use the
// largest micro-batch that fits.
func runFig15() Result {
	t := &Table{
		Title:   "Hybrid configurations, 7B model, 500 channels, 16 GCDs (2 nodes)",
		Headers: []string{"config", "micro-batch", "mem GiB/GPU", "TFLOPs/s/node", "status"},
	}
	shape := perfmodel.Shapes["7B"]
	machine := hw.Frontier()
	cal := perfmodel.DefaultCalibration()
	for _, s := range fig15Configs() {
		if s.World() != 16 {
			// Normalize every configuration to 16 GCDs with DP.
			s.DP = 16 / (s.TP * max(s.FSDP, 1))
			if s.DP < 1 {
				continue
			}
		}
		wl := perfmodel.ReferenceWorkload(500)
		wl.MicroBatch = 1
		b := perfmodel.MaxMicroBatch(shape, wl, s, machine, cal)
		if b == 0 {
			t.Add(s.Label(), "-", "-", "-", "OOM")
			continue
		}
		wl.MicroBatch = b
		r := perfmodel.Analyze(shape, wl, s, machine, cal)
		t.Add(s.Label(), fmt.Sprint(b), gib(r.TotalMemBytes()),
			fmt.Sprintf("%.1f", r.TFLOPsPerSecPerNode()), fitMark(r.Fits()))
	}
	t.Note("paper: D-CHAG frees memory, the freed memory becomes batch, and throughput per node rises")
	return Result{ID: "fig15", Title: "Hybrid performance optimization", Tables: []*Table{t}}
}

// runFig16 reproduces the batch-size scaling study up to 1,024 GCDs: the
// baseline (TP+FSDP across two nodes, DP across pairs of nodes) versus
// Hybrid D-CHAG (node-local D-CHAG+TP+FSDP, DP across nodes).
func runFig16() Result {
	t := &Table{
		Title:   "Sustained throughput scaling, 7B model, 500 channels",
		Headers: []string{"GCDs", "baseline TFLOPs/s", "hybrid D-CHAG TFLOPs/s", "gain", "baseline batch", "hybrid batch"},
	}
	shape := perfmodel.Shapes["7B"]
	machine := hw.Frontier()
	cal := perfmodel.DefaultCalibration()
	for _, gpus := range []int{16, 32, 64, 128, 256, 512, 1024} {
		// Baseline: TP=8 x FSDP=2 spans two nodes per replica.
		base := perfmodel.Strategy{Method: perfmodel.MethodBaseline, TP: 8, FSDP: 2, DP: gpus / 16}
		// Hybrid: D-CHAG TP=2 x FSDP=4 fits in one node; DP across nodes.
		hyb := perfmodel.Strategy{Method: perfmodel.MethodDCHAG, TP: 2, FSDP: 4, DP: gpus / 8, Tree: 0, Kind: core.KindLinear}
		row := []string{fmt.Sprint(gpus)}
		wl := perfmodel.ReferenceWorkload(500)
		wl.MicroBatch = 1
		bBase := perfmodel.MaxMicroBatch(shape, wl, base, machine, cal)
		bHyb := perfmodel.MaxMicroBatch(shape, wl, hyb, machine, cal)
		var tpBase, tpHyb float64
		if bBase > 0 {
			w := wl
			w.MicroBatch = bBase
			tpBase = perfmodel.Analyze(shape, w, base, machine, cal).TFLOPsPerSec()
		}
		if bHyb > 0 {
			w := wl
			w.MicroBatch = bHyb
			tpHyb = perfmodel.Analyze(shape, w, hyb, machine, cal).TFLOPsPerSec()
		}
		gain := "-"
		if tpBase > 0 {
			gain = pct(tpHyb/tpBase - 1)
		}
		row = append(row, fmt.Sprintf("%.0f", tpBase), fmt.Sprintf("%.0f", tpHyb), gain,
			fmt.Sprint(bBase*base.FSDP*base.DP), fmt.Sprint(bHyb*hyb.FSDP*hyb.DP))
		t.Add(row...)
	}
	t.Note("paper: Hybrid D-CHAG sustains more than 2x the baseline throughput as batch size scales to 1,024 GPUs (up to +239%%)")
	return Result{ID: "fig16", Title: "Performance as batch size scales", Tables: []*Table{t}}
}
