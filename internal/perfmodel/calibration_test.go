package perfmodel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
)

// These tests pin the calibration to the feasibility boundaries the paper
// publishes. Each case cites the paper section it encodes. If a constant in
// DefaultCalibration changes, these are the invariants that must keep
// holding.

func analyzeAt(name string, channels, tp, fsdp int, method Method) Report {
	wl := ReferenceWorkload(channels)
	strat := Strategy{Method: method, TP: tp, FSDP: fsdp, Kind: core.KindLinear}
	return AnalyzeDefault(Shapes[name], wl, strat)
}

func assertFits(t *testing.T, r Report, want bool, msg string) {
	t.Helper()
	if r.Fits() != want {
		t.Fatalf("%s: fits=%v (%.1f GiB of %.1f), want %v",
			msg, r.Fits(), r.TotalMemBytes()/(1<<30),
			float64(r.Machine.UsableMemBytes())/(1<<30), want)
	}
}

func TestSingleGPUBoundaries(t *testing.T) {
	// Paper Sec. 4.2 / Fig. 6: "The 100M-parameter model can handle up to
	// 512 channels, while the 1B and 3B models can handle 256 and 128
	// channels, respectively."
	assertFits(t, analyzeAt("100M", 512, 1, 1, MethodBaseline), true, "100M@512 single GPU")
	assertFits(t, analyzeAt("100M", 1024, 1, 1, MethodBaseline), false, "100M@1024 single GPU")
	assertFits(t, analyzeAt("1B", 256, 1, 1, MethodBaseline), true, "1B@256 single GPU")
	assertFits(t, analyzeAt("1B", 512, 1, 1, MethodBaseline), false, "1B@512 single GPU")
	assertFits(t, analyzeAt("3B", 128, 1, 1, MethodBaseline), true, "3B@128 single GPU")
	assertFits(t, analyzeAt("3B", 256, 1, 1, MethodBaseline), false, "3B@256 single GPU")
}

func TestFSDPBoundaries(t *testing.T) {
	// Paper Sec. 4.3: "we can use FSDP to train a 1.7B parameter model with
	// up to 256 channels on two GPUs, or a 7B parameter model with 128
	// channels on a single node".
	assertFits(t, analyzeAt("1.7B", 256, 1, 2, MethodBaseline), true, "1.7B@256 FSDP=2")
	assertFits(t, analyzeAt("1.7B", 512, 1, 2, MethodBaseline), false, "1.7B@512 FSDP=2 (needs TP)")
	assertFits(t, analyzeAt("7B", 128, 1, 8, MethodBaseline), true, "7B@128 FSDP=8 (one node)")
	// Paper Sec. 6.1: "we can run a 7B parameter model with 128 channels on
	// a single Frontier node using FSDP alone, but we can't fit 256
	// channels".
	assertFits(t, analyzeAt("7B", 256, 1, 8, MethodBaseline), false, "7B@256 FSDP=8")
	// "On a single Frontier node, we can only fit a 15B parameter model with
	// up to 64 channels".
	assertFits(t, analyzeAt("15B", 64, 1, 8, MethodBaseline), true, "15B@64 FSDP=8")
	assertFits(t, analyzeAt("15B", 128, 1, 8, MethodBaseline), false, "15B@128 FSDP=8")
	// "we can't fit a 26B parameter model on a single node at all".
	assertFits(t, analyzeAt("26B", 8, 1, 8, MethodBaseline), false, "26B@8 FSDP=8")
}

func TestTPBoundaries(t *testing.T) {
	// Paper Sec. 4.3 / Fig. 7: "for the 1.7B parameter model, two GPUs are
	// required to fit images with 512 input channels, while a full Frontier
	// node is needed to fit images with 1024 channels using TP."
	assertFits(t, analyzeAt("1.7B", 512, 2, 1, MethodBaseline), true, "1.7B@512 TP=2")
	assertFits(t, analyzeAt("1.7B", 1024, 8, 1, MethodBaseline), true, "1.7B@1024 TP=8")
	assertFits(t, analyzeAt("1.7B", 1024, 4, 1, MethodBaseline), false, "1.7B@1024 TP=4")
	// "for the 7B parameter model, images with 256 channels can fit on half
	// of a Frontier node, while two Frontier nodes are required to fit
	// images with 512 channels."
	assertFits(t, analyzeAt("7B", 256, 4, 1, MethodBaseline), true, "7B@256 TP=4")
	assertFits(t, analyzeAt("7B", 512, 16, 1, MethodBaseline), true, "7B@512 TP=16")
	// The paper needs two full nodes (TP=16) here; our calibration agrees
	// that half a node is insufficient (see EXPERIMENTS.md for the exact
	// boundary's divergence at TP=8).
	assertFits(t, analyzeAt("7B", 512, 4, 1, MethodBaseline), false, "7B@512 TP=4")
}

func TestLargeModelTPOnlyInfeasible(t *testing.T) {
	// Paper Sec. 6.1 / Fig. 14: the 26B model cannot fit 256-channel images
	// under TP alone. Our calibration reproduces this within a full node of
	// TP (the paper's practical regime); at 2+ nodes of TP the model
	// predicts a marginal fit — a documented divergence (EXPERIMENTS.md).
	shape := Shapes["26B"]
	wl := ReferenceWorkload(256)
	machine := hw.Frontier()
	for tp := 1; tp <= machine.GPUsPerNode; tp *= 2 {
		r := AnalyzeDefault(shape, wl, Strategy{Method: MethodBaseline, TP: tp})
		if r.Fits() {
			t.Fatalf("26B@256 unexpectedly fits under TP=%d (%.1f GiB)", tp, r.TotalMemBytes()/(1<<30))
		}
	}
}

func TestDCHAGFits26BAt512(t *testing.T) {
	// Paper Sec. 6.1 / Fig. 14: "when using the D-CHAG method, we can fit a
	// 26B parameter model with 512 channels, utilizing less than 80% of the
	// available memory."
	shape := Shapes["26B"]
	wl := ReferenceWorkload(512)
	r := AnalyzeDefault(shape, wl, Strategy{Method: MethodDCHAG, TP: 32, Tree: 0, Kind: core.KindLinear})
	if !r.Fits() {
		t.Fatalf("26B@512 D-CHAG TP=32 should fit, got %.1f GiB", r.TotalMemBytes()/(1<<30))
	}
	if frac := r.TotalMemBytes() / float64(r.Machine.GPUMemBytes); frac >= 0.8 {
		t.Fatalf("26B@512 D-CHAG memory fraction %.2f, want < 0.8", frac)
	}
}

func TestDistTokAloneDoesNotPayOff(t *testing.T) {
	// Paper Sec. 4.4 / Fig. 8: distributing tokenization alone reduces the
	// tokenization component but the channel+spatial AllGather makes the
	// aggregation component *larger* than the TP baseline's.
	shape := Shapes["1.7B"]
	wl := ReferenceWorkload(512)
	base := AnalyzeDefault(shape, wl, Strategy{Method: MethodBaseline, TP: 2})
	dist := AnalyzeDefault(shape, wl, Strategy{Method: MethodDistTok, TP: 2})
	if !(dist.ActBytes[CompTok] < base.ActBytes[CompTok]) {
		t.Fatal("distributed tokenization must shrink the tokenization component")
	}
	if !(dist.ComponentMemBytes(CompAgg) > base.ComponentMemBytes(CompAgg)) {
		t.Fatal("the AllGather must inflate the aggregation component (Fig. 8's yellow bars)")
	}
}

func TestDCHAGMemoryGainsShrinkWithModelSize(t *testing.T) {
	// Paper Sec. 6.1: "as the model parameters of the transformer blocks
	// grow larger, the memory gains become smaller."
	machine := hw.Frontier()
	cal := DefaultCalibration()
	gain := func(name string, ch, tp int) float64 {
		wl := ReferenceWorkload(ch)
		return MemGainOverBaseline(Shapes[name], wl, Strategy{
			Method: MethodDCHAG, TP: tp, Tree: 0, Kind: core.KindLinear,
		}, machine, cal)
	}
	g7 := gain("7B", 256, 8)
	g15 := gain("15B", 256, 8)
	g26 := gain("26B", 256, 8)
	if !(g7 > g15 && g15 > g26) {
		t.Fatalf("gains must shrink with model size: 7B=%.2f 15B=%.2f 26B=%.2f", g7, g15, g26)
	}
	// "for a fixed model size, we observe better performance gains as the
	// number of channels increases."
	gLow := gain("7B", 128, 8)
	gHigh := gain("7B", 512, 8)
	if !(gHigh > gLow) {
		t.Fatalf("gains must grow with channels: 128ch=%.2f 512ch=%.2f", gLow, gHigh)
	}
}

func TestLinearBeatsCrossPartials(t *testing.T) {
	// Paper Sec. 6.1: "using more linear layers instead of cross-attention
	// layers results in better performance."
	machine := hw.Frontier()
	cal := DefaultCalibration()
	wl := ReferenceWorkload(256)
	mk := func(kind core.LayerKind) float64 {
		return MemGainOverBaseline(Shapes["7B"], wl, Strategy{
			Method: MethodDCHAG, TP: 8, Tree: 0, Kind: kind,
		}, machine, cal)
	}
	if !(mk(core.KindLinear) > mk(core.KindCross)) {
		t.Fatalf("D-CHAG-L gain %.3f must exceed D-CHAG-C gain %.3f", mk(core.KindLinear), mk(core.KindCross))
	}
}

func TestAggregationDominatesMemoryAtHighChannels(t *testing.T) {
	// Paper Sec. 4.3: "tokenization and channel aggregation account from 50%
	// to 90% of the memory usage when the number of channels is large."
	for _, tc := range []struct {
		name string
		ch   int
		tp   int
	}{{"1.7B", 512, 2}, {"1.7B", 1024, 8}, {"7B", 512, 16}} {
		r := analyzeAt(tc.name, tc.ch, tc.tp, 1, MethodBaseline)
		frac := (r.ComponentMemBytes(CompTok) + r.ComponentMemBytes(CompAgg)) / r.TotalMemBytes()
		if frac < 0.5 || frac > 0.95 {
			t.Fatalf("%s@%d TP=%d: tok+agg fraction %.2f outside the paper's 50-90%% band", tc.name, tc.ch, tc.tp, frac)
		}
	}
}

func TestComputeShiftsToChannelStageWithChannels(t *testing.T) {
	// Paper Sec. 4.2 / Fig. 6 (bottom): as channels grow, the majority of
	// FLOPs moves to tokenization + aggregation.
	shape := Shapes["1B"]
	fracAt := func(ch int) float64 {
		r := AnalyzeDefault(shape, ReferenceWorkload(ch), Strategy{Method: MethodBaseline})
		total := 0.0
		for _, f := range r.FwdFLOPs {
			total += f
		}
		return (r.FwdFLOPs[CompTok] + r.FwdFLOPs[CompAgg]) / total
	}
	if !(fracAt(512) > fracAt(64)) {
		t.Fatalf("channel-stage FLOPs share must grow with channels: %f vs %f", fracAt(64), fracAt(512))
	}
	if fracAt(512) < 0.5 {
		t.Fatalf("at 512 channels the channel stage should dominate compute, got %.2f", fracAt(512))
	}
}

func TestDCHAGBeatsBaselineThroughputAtHighChannels(t *testing.T) {
	// The headline Fig. 16 direction: D-CHAG-L improves modeled throughput
	// over the TP baseline at high channel counts.
	machine := hw.Frontier()
	cal := DefaultCalibration()
	wl := ReferenceWorkload(512)
	gain := ThroughputGainOverBaseline(Shapes["7B"], wl, Strategy{
		Method: MethodDCHAG, TP: 16, Tree: 0, Kind: core.KindLinear,
	}, machine, cal)
	if gain <= 0 {
		t.Fatalf("D-CHAG-L throughput gain %.2f should be positive at 512 channels", gain)
	}
}

func TestMaxMicroBatchMonotoneInMemory(t *testing.T) {
	machine := hw.Frontier()
	cal := DefaultCalibration()
	wl := ReferenceWorkload(500)
	wl.MicroBatch = 1
	base := MaxMicroBatch(Shapes["7B"], wl, Strategy{Method: MethodBaseline, TP: 16}, machine, cal)
	dchag := MaxMicroBatch(Shapes["7B"], wl, Strategy{Method: MethodDCHAG, TP: 16, Tree: 0, Kind: core.KindLinear}, machine, cal)
	if !(dchag > base) {
		t.Fatalf("D-CHAG max micro-batch %d must exceed baseline %d (Fig. 15 mechanism)", dchag, base)
	}
	if base < 1 {
		t.Fatalf("baseline 7B@500 TP=16 should fit at least batch 1, got %d", base)
	}
}

func TestMinTPToFitMatchesBoundaries(t *testing.T) {
	machine := hw.Frontier()
	cal := DefaultCalibration()
	if tp := MinTPToFit(Shapes["1.7B"], ReferenceWorkload(512), Strategy{Method: MethodBaseline}, machine, cal, 32); tp != 2 {
		t.Fatalf("1.7B@512 min TP = %d, want 2", tp)
	}
	if tp := MinTPToFit(Shapes["7B"], ReferenceWorkload(512), Strategy{Method: MethodBaseline}, machine, cal, 32); tp != 8 && tp != 16 {
		t.Fatalf("7B@512 min TP = %d, want 8 or 16 (paper: 16)", tp)
	}
	if tp := MinTPToFit(Shapes["26B"], ReferenceWorkload(256), Strategy{Method: MethodBaseline}, machine, cal, 8); tp != 0 {
		t.Fatalf("26B@256 min TP within a node = %d, want infeasible (0)", tp)
	}
}

// The overlap-factor calibration pins (ISSUE 4): the fitted Overlap values
// must keep the paper's qualitative story intact while pulling absolute
// hybrid gains toward the reported improvements.

func TestOverlapCalibrationOrdering(t *testing.T) {
	// DP bucket overlap is the more effective machinery than FSDP's
	// blocking per-layer prefetch, and both are real (nonzero) but
	// imperfect (< 1). TP has no factor at all: it is on the critical path
	// by discipline, not by calibration.
	ov := DefaultOverlap()
	if !(0 < ov.FSDP && ov.FSDP < ov.DP && ov.DP < 1) {
		t.Fatalf("want 0 < FSDP (%v) < DP (%v) < 1", ov.FSDP, ov.DP)
	}
}

// sweep512Gain prices the 512-GCD Fig. 15 comparison under a calibration:
// the winning node-local hybrid versus the pure-FSDP baseline, each at its
// largest fitting micro-batch.
func sweep512Gain(t *testing.T, cal Calibration) float64 {
	t.Helper()
	machine := hw.Frontier()
	shape := Shapes["7B"]
	price := func(strat Strategy) float64 {
		wl := ReferenceWorkload(500)
		b := MaxMicroBatch(shape, wl, strat, machine, cal)
		if b == 0 {
			t.Fatalf("%+v OOMs", strat)
		}
		wl.MicroBatch = b
		return Analyze(shape, wl, strat, machine, cal).TFLOPsPerSecPerNode()
	}
	hybrid := price(Strategy{Method: MethodDCHAG, TP: 2, FSDP: 4, DP: 64, Kind: core.KindLinear})
	pure := price(Strategy{Method: MethodBaseline, TP: 1, FSDP: 512, DP: 1})
	return hybrid/pure - 1
}

func TestOverlapCalibrationTracksPaperGains(t *testing.T) {
	// Under the serial composition the hybrid-vs-pure-FSDP gain is
	// exaggerated (pure-FSDP is charged every parameter collective at full
	// price); with the calibrated overlap on, pure-FSDP recovers most of
	// its gradient traffic while the hybrid's TP time stays exposed, so
	// the gain comes down toward the "more than 2x" improvement the paper
	// reports (Figs. 15/16) — and no further.
	gOver := sweep512Gain(t, DefaultCalibration())
	serial := DefaultCalibration()
	serial.Overlap = Overlap{}
	gSerial := sweep512Gain(t, serial)
	if !(gOver < gSerial) {
		t.Fatalf("overlap must shrink the gain: %+.1f%% vs serial %+.1f%%", 100*gOver, 100*gSerial)
	}
	if gOver < 1.0 || gOver > 2.2 {
		t.Fatalf("overlapped hybrid-vs-pure-FSDP gain %+.1f%% outside the paper-tracking band (+100%%..+220%%)", 100*gOver)
	}
}

func TestOverlapKeepsNodeLocalHybridWinning(t *testing.T) {
	// Overlap must not flip the paper's headline: a node-local TP hybrid
	// still beats both the TP-free D-CHAG shape (whose FSDP/DP traffic
	// overlap forgives most aggressively) and pure FSDP at 512 GCDs.
	machine := hw.Frontier()
	cal := DefaultCalibration()
	shape := Shapes["7B"]
	price := func(strat Strategy) float64 {
		wl := ReferenceWorkload(500)
		b := MaxMicroBatch(shape, wl, strat, machine, cal)
		if b == 0 {
			return 0
		}
		wl.MicroBatch = b
		return Analyze(shape, wl, strat, machine, cal).TFLOPsPerSecPerNode()
	}
	hybrid := price(Strategy{Method: MethodDCHAG, TP: 2, FSDP: 4, DP: 64, Kind: core.KindLinear})
	noTP := price(Strategy{Method: MethodDCHAG, TP: 1, FSDP: 8, DP: 64, Kind: core.KindLinear})
	pure := price(Strategy{Method: MethodBaseline, TP: 1, FSDP: 512, DP: 1})
	if !(hybrid > noTP) {
		t.Fatalf("node-local TP hybrid (%.1f) must beat the TP-free shape (%.1f) under overlap", hybrid, noTP)
	}
	if !(hybrid > pure) {
		t.Fatalf("node-local TP hybrid (%.1f) must beat pure-FSDP (%.1f) under overlap", hybrid, pure)
	}
}

func TestStrategyLabels(t *testing.T) {
	s := Strategy{Method: MethodDCHAG, TP: 2, FSDP: 4, DP: 8, Tree: 0, Kind: core.KindLinear}
	if s.Label() != "D-CHAG-L-Tree0 TP=2 FSDP=4 DP=8" {
		t.Fatalf("label = %q", s.Label())
	}
	if s.World() != 64 {
		t.Fatalf("world = %d", s.World())
	}
	b := Strategy{Method: MethodBaseline, TP: 4}
	if b.Label() != "TP-baseline TP=4" {
		t.Fatalf("label = %q", b.Label())
	}
}

func TestReportAccounting(t *testing.T) {
	r := analyzeAt("100M", 128, 1, 1, MethodBaseline)
	total := 0.0
	for _, c := range Components {
		total += r.ComponentMemBytes(c)
	}
	if total != r.TotalMemBytes() {
		t.Fatal("component memory must sum to total")
	}
	if r.MemFraction() <= 0 {
		t.Fatal("memory fraction must be positive")
	}
	if r.StepSeconds() <= 0 || r.TFLOPsPerSec() <= 0 {
		t.Fatal("time and throughput must be positive")
	}
}
