package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestRunComputeBenchQuick sanity-checks the compute benchmark runner on the
// reduced configuration: every size, every D-CHAG shape, every aggregator and
// every elementwise routine and every channel stage yields plausible positive
// measurements, the derived claim fields match the
// largest point, and the report round-trips through JSON under the schema
// string the artifact test gates on.
func TestRunComputeBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	cfg := QuickComputeBench()
	rep := RunComputeBench(cfg)
	if rep.Schema != ComputeSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ComputeSchema)
	}
	if len(rep.Points) != len(cfg.Sizes) {
		t.Fatalf("got %d points for %d sizes", len(rep.Points), len(cfg.Sizes))
	}
	for _, p := range rep.Points {
		if p.NaiveGFLOPS <= 0 || p.BlockedGFLOPS <= 0 || p.F32GFLOPS <= 0 {
			t.Fatalf("non-positive rate in point %+v", p)
		}
		if p.BlockedAllocsPerOp < 0 || p.F32AllocsPerOp < 0 {
			t.Fatalf("negative allocs/op in point %+v", p)
		}
	}
	if len(rep.Shapes) != len(dchagShapes) {
		t.Fatalf("got %d shape points, want %d", len(rep.Shapes), len(dchagShapes))
	}
	for _, sp := range rep.Shapes {
		if sp.NaiveGFLOPS <= 0 || sp.GFLOPS <= 0 || sp.AllocsPerOp < 0 {
			t.Fatalf("implausible shape point %+v", sp)
		}
	}
	if len(rep.Aggregators) != len(dchagAggregators) {
		t.Fatalf("got %d aggregator points, want %d", len(rep.Aggregators), len(dchagAggregators))
	}
	for _, ap := range rep.Aggregators {
		if ap.FwdMicros <= 0 || ap.BwdMicros <= 0 || ap.AllocsPerOp < 0 ||
			ap.PooledFwdMACs <= 0 || ap.PooledFwdMACs >= ap.UnpooledFwdMACs {
			t.Fatalf("implausible aggregator point %+v", ap)
		}
	}
	if len(rep.Elementwise) != len(dchagElementwise) {
		t.Fatalf("got %d elementwise points, want %d", len(rep.Elementwise), len(dchagElementwise))
	}
	for _, ep := range rep.Elementwise {
		libm := ep.Op == "SoftmaxLastDimInto" || ep.Op == "GELU.Forward" || ep.Op == "GELU.Backward"
		if ep.NsPerElem <= 0 || ep.TwinNsPerElem <= 0 || ep.VectorSpeedup <= 0 || (ep.RefNsPerElem > 0) != libm || ep.AllocsPerOp < 0 {
			t.Fatalf("implausible elementwise point %+v", ep)
		}
	}
	if len(rep.Stages) != len(dchagChannelStages) {
		t.Fatalf("got %d channel-stage points, want %d", len(rep.Stages), len(dchagChannelStages))
	}
	for _, cp := range rep.Stages {
		for i, c := range []StageCost{cp.Stage, cp.Chained} {
			// Two token tensors at least, but one for a linear stage, whose
			// Infer writes none.
			floor := 2 * cp.TokenBytes
			if i == 0 && cp.Kind == core.KindLinear.String() {
				floor = cp.TokenBytes
			}
			if c.FwdNs <= 0 || c.BwdNs <= 0 || c.InferNs <= 0 || c.ScratchBytes < floor {
				t.Fatalf("implausible channel-stage point %+v", cp)
			}
		}
		if cp.AllocsPerOp < 0 || cp.Chained.ScratchBytes <= cp.Stage.ScratchBytes {
			t.Fatalf("implausible channel-stage point %+v", cp)
		}
	}
	// The counts DESIGN.md quotes for the hsi partial-aggregation layer.
	if p, u := aggregatorFwdMACs(16, 32); p != 58880 || u != 81920 {
		t.Fatalf("forward MACs per location at g=16, E=32: pooled %d, unpooled %d; want 58880, 81920", p, u)
	}
	last := rep.Points[len(rep.Points)-1]
	if rep.Claims.BlockedSpeedupAtMax != last.BlockedSpeedup ||
		rep.Claims.F32SpeedupAtMax != last.F32Speedup {
		t.Fatalf("claims %+v do not match the largest point %+v", rep.Claims, last)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("encoding report: %v", err)
	}
	var back ComputeReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	if back.Schema != ComputeSchema || len(back.Points) != len(rep.Points) || len(back.Shapes) != len(rep.Shapes) ||
		len(back.Aggregators) != len(rep.Aggregators) || len(back.Elementwise) != len(rep.Elementwise) ||
		len(back.Stages) != len(rep.Stages) {
		t.Fatalf("report did not round-trip: %+v", back)
	}
	if back.Points[0].Size != cfg.Sizes[0] {
		t.Fatalf("point at size %d missing after round-trip", cfg.Sizes[0])
	}
}

// TestElementwiseReferencesAgree holds the libm baselines of the elementwise
// points to the routines they are timed against: the speedup compares two
// spellings of the same function.
func TestElementwiseReferencesAgree(t *testing.T) {
	rng := tensor.NewRNG(1)
	x, d := tensor.RandnScaled(rng, 3, 6, 11), tensor.Randn(rng, 6, 11)
	ref := tensor.New(6, 11)
	gelu := nn.NewGELU()

	refSoftmax(ref.Data, x.Data, 11)
	if diff := tensor.MaxAbsDiff(ref, tensor.SoftmaxLastDimInto(nil, x)); diff > 1e-15 {
		t.Fatalf("refSoftmax is %g from SoftmaxLastDim", diff)
	}
	refGELU(ref.Data, x.Data)
	if diff := tensor.MaxAbsDiff(ref, gelu.Forward(x)); diff > 1e-14 {
		t.Fatalf("refGELU is %g from GELU.Forward", diff)
	}
	refGELUGrad(ref.Data, x.Data, d.Data)
	if diff := tensor.MaxAbsDiff(ref, gelu.Backward(d)); diff > 1e-14 {
		t.Fatalf("refGELUGrad is %g from GELU.Backward", diff)
	}
}

// TestChainedStageAgrees holds the "before" column of the channel-stage
// points to the stage it is timed against: the same layers chained through
// their channel-major entry points compute the shipped stage's output, image
// gradient, parameter gradients and F32 Infer bit for bit, so the two columns
// differ in data movement only.
func TestChainedStageAgrees(t *testing.T) {
	for _, kind := range []core.LayerKind{core.KindCross, core.KindLinear} {
		cfg := core.Config{Channels: 7, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: 2, Tree: 3, Kind: kind, Seed: 2}
		stage, ref := oneStage(cfg), &chainedStage{DCHAG: oneStage(cfg)}
		stage.SetInferDType(tensor.F32)
		ref.SetInferDType(tensor.F32)
		rng := tensor.NewRNG(3)
		x, d := tensor.Randn(rng, 3, cfg.Channels, cfg.ImgH, cfg.ImgW), tensor.Randn(rng, 3, cfg.Tokens(), cfg.Embed)
		same := func(what string, got, want *tensor.Tensor) {
			t.Helper()
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("kind %s %s: value %d is %v, chained stage has %v", kind, what, i, v, want.Data[i])
				}
			}
		}
		same("output", stage.Forward(x), ref.pass(x, false))
		same("image gradient", stage.Backward(d), ref.backward(d))
		for i, p := range stage.Params() {
			same("grad "+p.Name, p.Grad, ref.Params()[i].Grad)
		}
		same("F32 Infer", stage.Infer(x), ref.pass(x, true))
		tokens := int64(8 * 3 * cfg.Channels * cfg.Tokens() * cfg.Embed) // one [B, C, T, E] tensor
		// Forward's group inputs and Infer's.
		held := int64(2)
		if kind == core.KindLinear {
			held = 1 // Infer writes none
		}
		if got, want := scratchBytes(stage), scratchBytes(ref); got < held*tokens || want < got+5*tokens {
			t.Fatalf("kind %s: shipped stage holds %d scratch bytes, chained %d; want at least %d and 5 more token tensors of %d", kind, got, want, held, tokens)
		}
	}
}

// TestScratchBytesFindsWorkspace checks that scratchBytes still recognises
// core's backward workspace, found by the name of the stage field that holds
// them: without it the channel_stage points would count the aggregation's
// arithmetic as scratch.
func TestScratchBytesFindsWorkspace(t *testing.T) {
	if workspaceType == nil || workspaceType.Kind() != reflect.Struct {
		t.Fatalf("workspaceType = %v: core.DCHAG no longer holds its backward workspaces in a slice field ws", workspaceType)
	}
}

// BenchmarkGEMMShapes times every product of BENCH_compute.json's shapes
// section through the artifact's own runner, so that test binaries of two
// commits can be alternated shape by shape (`go test -c`, `-test.cpu 1`).
// MB/s reads as 2*batch*m*k*n bytes per call: GFLOP/s = MB/s / 1000.
func BenchmarkGEMMShapes(b *testing.B) {
	for _, sp := range dchagShapes {
		step := shapeStep(sp)
		b.Run(sp.Name, func(b *testing.B) {
			b.SetBytes(2 * int64(sp.Batch*sp.M*sp.K*sp.N))
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
