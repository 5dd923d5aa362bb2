package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func init() {
	register(Experiment{
		ID:    "compute",
		Title: "Compute substrate: measured GEMM throughput, naive vs blocked f64 vs f32",
		Run:   runCompute,
	})
}

// ComputeSchema identifies the JSON layout of ComputeReport — the
// single-node compute-substrate point of the perf trajectory
// (BENCH_compute.json, written by `dchag-bench -compute`). It is wall-clock
// measured, so tooling gates on its qualitative claims (blocked beats naive,
// f32 beats f64, steady state allocation-free) rather than exact rates. v2
// added the shapes section: the products the D-CHAG workloads actually
// issue, next to the square sizes. v3 adds the
// aggregators section: one whole cross-attention channel aggregation, timed
// forward and backward, next to the matrix-product work of the pooled
// formulation it runs and of the unpooled one it replaced. v4 adds the
// elementwise section: softmax and GELU on the vector exp kernel next to
// math.Exp / math.Tanh loops over the same data. v5 adds the channel_stage
// section: the whole serial channel stage, forward, backward and F32 eval,
// time and scratch bytes, next to the same layers chained through their
// channel-major entry points. v6 adds packed_elems to every shape point —
// how many operand elements the product driver copies into panels instead of
// reading in place — and two shapes the workload profiles name: the serving
// tokenizer's float32 product and a tensor-parallel MLP shard. v7 adds the
// callers section: the two column-parallel products of a wx_tp2dp2 rank
// issued by one and by two goroutines at once, the regime the ranks of a
// mesh run in. v8 replaces the simd flag with kernel, the product-kernel tier
// that ran: "avx512", "avx2" or "go". v9 adds core_fwd_us and core_bwd_us to
// every aggregator point — the pooled attention pass alone, beside the layer
// — and drops the channel aggregation's batched products and softmax from
// shapes and elementwise: the pass issues neither. v10 times proj_fwd,
// proj_infer_f32 and tokenize_f32 the way the layers now issue them, through
// AffineInto / AffinePackedF32Into with the epilogue the kernel adds as it
// stores (a bias; for the tokenizer a bias and the channel-ID row, into the
// strided group input), and records it as epilogue.
const ComputeSchema = "dchag-bench/compute/v10"

// ComputePoint is one measured square GEMM size (dst = A@B, all [n,n]).
type ComputePoint struct {
	// Size is the square matrix extent n; each product is 2n^3 FLOPs.
	Size int `json:"size"`
	// NaiveGFLOPS is the scalar ikj loop (naiveBatched); BlockedGFLOPS the
	// packed, register-tiled f64 driver (tensor.MatMulInto); F32GFLOPS the float32
	// kernel against a prepacked B panel (tensor.AffinePackedF32Into — the
	// serving configuration, so packing is off the measured path).
	NaiveGFLOPS   float64 `json:"naive_gflops"`
	BlockedGFLOPS float64 `json:"blocked_gflops"`
	F32GFLOPS     float64 `json:"f32_gflops"`
	// BlockedSpeedup is BlockedGFLOPS/NaiveGFLOPS; F32Speedup is
	// F32GFLOPS/BlockedGFLOPS.
	BlockedSpeedup float64 `json:"blocked_speedup"`
	F32Speedup     float64 `json:"f32_speedup"`
	// BlockedAllocsPerOp and F32AllocsPerOp are steady-state heap
	// allocations per product with a reused destination (pool-backed panel
	// scratch warm); the destination-passing contract pins both at 0 on a
	// single-threaded run.
	BlockedAllocsPerOp float64 `json:"blocked_allocs_per_op"`
	F32AllocsPerOp     float64 `json:"f32_allocs_per_op"`
}

// ShapePoint is one measured product shape a D-CHAG workload issues: Batch
// products of M x K x N through the named tensor entry point. Strided points
// read (and, for the context product, write) attention heads in place out of
// [N,T,H*Dh] projection layouts through tensor.HeadView, as nn.AttentionCore
// does, or (the tokenizer) write one channel's tokens into its group's input
// [N, g, E] at row stride g*E; the others run on contiguous operands.
type ShapePoint struct {
	Name    string `json:"name"`
	Op      string `json:"op"`
	Batch   int    `json:"batch"`
	M       int    `json:"m"`
	K       int    `json:"k"`
	N       int    `json:"n"`
	Strided bool   `json:"strided"`
	// Epilogue is what the kernel adds as it stores, where the layer has it
	// add something: "bias" (nn.Linear), "bias+row" (the tokenizer's bias and
	// channel-ID row).
	Epilogue string `json:"epilogue,omitempty"`
	// PackedElems is how many operand elements the driver moves through
	// tensor's pack for one of the Batch products (tensor.DType.PackedElems):
	// 0 where the kernel reads both operands where they lie.
	PackedElems int `json:"packed_elems"`
	// NaiveGFLOPS is the scalar ikj triple loop over contiguous operands of
	// the same extents (no packing, no tiling); GFLOPS the entry point's
	// rate; Speedup their ratio. All at 2*Batch*M*K*N FLOPs per call, each
	// from its fastest call, the two timed alternately.
	NaiveGFLOPS float64 `json:"naive_gflops"`
	GFLOPS      float64 `json:"gflops"`
	Speedup     float64 `json:"speedup"`
	// AllocsPerOp is the steady-state heap allocations per call.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// AggregatorPoint is one measured core.CrossAttnAggregator: N locations, each
// reducing Group channel tokens of width Embed to one token with Heads
// attention heads.
type AggregatorPoint struct {
	N     int `json:"n"`
	Group int `json:"group"`
	Embed int `json:"embed"`
	Heads int `json:"heads"`
	// FwdMicros and BwdMicros are the best-trial wall time of one Forward and
	// of one Backward call; CoreFwdMicros and CoreBwdMicros the same for the
	// pooled attention pass inside them (tensor.PooledAttention with the map
	// written, and tensor.PooledAttentionBackward) on operands of the layer's
	// shape; AllocsPerOp the steady-state heap allocations of a
	// forward-backward pair of the layer.
	FwdMicros     float64 `json:"fwd_us"`
	BwdMicros     float64 `json:"bwd_us"`
	CoreFwdMicros float64 `json:"core_fwd_us"`
	CoreBwdMicros float64 `json:"core_bwd_us"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	// The multiply-accumulates of the layer's matrix products per location
	// (softmax, pooling adds and bias adds are not products and are not
	// counted), forward; backward is exactly twice forward in both
	// formulations. Pooled is what the layer executes — the mean over the
	// group taken on the attention map before the value product and Wo —
	// unpooled the same layer with the mean taken last.
	PooledFwdMACs   int `json:"pooled_fwd_macs"`
	UnpooledFwdMACs int `json:"unpooled_fwd_macs"`
	PooledBwdMACs   int `json:"pooled_bwd_macs"`
	UnpooledBwdMACs int `json:"unpooled_bwd_macs"`
}

// ElementwisePoint is one measured transcendental routine over a
// [Rows, Cols] tensor: a softmax along the last dimension or a GELU forward
// or backward.
type ElementwisePoint struct {
	Name string `json:"name"`
	Op   string `json:"op"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// RefNsPerElem is a scalar loop on math.Exp (softmax) or math.Tanh (GELU)
	// — what the routine was before tensor.Exp — and NsPerElem the shipped
	// routine, both best-trial nanoseconds per element; Speedup their ratio.
	RefNsPerElem float64 `json:"ref_ns_per_elem"`
	NsPerElem    float64 `json:"ns_per_elem"`
	Speedup      float64 `json:"speedup"`
	// AllocsPerOp is the shipped routine's steady-state heap allocations per
	// call.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// CallerPoint is one product shape issued by Callers goroutines at once, each
// on its own operands, under GOMAXPROCS MaxProcs: what a rank of a mesh gets
// out of tensor.MatMulInto while its peers are inside theirs.
type CallerPoint struct {
	Name     string `json:"name"`
	M        int    `json:"m"`
	K        int    `json:"k"`
	N        int    `json:"n"`
	MaxProcs int    `json:"maxprocs"`
	Callers  int    `json:"callers"`
	// GFLOPSPerCaller is the callers' mean rate over the best of the timed
	// windows, each caller counting its own products over its own wall time.
	GFLOPSPerCaller float64 `json:"gflops_per_caller"`
}

// ComputeClaims are the qualitative gates the artifact test asserts. The
// speedup claims hold only where the vector micro-kernels run, so
// TestComputeJSONArtifact gates them on a kernel tier other than "go".
type ComputeClaims struct {
	// BlockedSpeedupAtMax and F32SpeedupAtMax are the speedups at the
	// largest measured size (the artifact's gates: blocked >= 2x naive, f32 >=
	// 1.5x blocked f64 at 512^3 under the avx2 tier and >= 0.9x under avx512,
	// where the f64 kernel's lanes match the f32 kernel's).
	BlockedSpeedupAtMax float64 `json:"blocked_speedup_at_max"`
	F32SpeedupAtMax     float64 `json:"f32_speedup_at_max"`
	// AllocFree reports that every measured point, shape, aggregator,
	// elementwise routine and channel stage ran with zero steady-state
	// allocations per call.
	AllocFree bool `json:"steady_state_alloc_free"`
}

// ComputeReport is the machine-readable compute benchmark — the payload
// behind `dchag-bench -compute`.
type ComputeReport struct {
	Schema string `json:"schema"`
	// Kernel is the product-kernel tier that ran (tensor.KernelTier);
	// MaxProcs the GOMAXPROCS the rates were measured under.
	Kernel   string `json:"kernel"`
	MaxProcs int    `json:"maxprocs"`
	// NumCPU is the host's processor count; the callers section sets its own
	// GOMAXPROCS and means something only where two processors exist.
	NumCPU      int                 `json:"num_cpu"`
	Sizes       []int               `json:"sizes"`
	Points      []ComputePoint      `json:"points"`
	Shapes      []ShapePoint        `json:"shapes"`
	Aggregators []AggregatorPoint   `json:"aggregators"`
	Elementwise []ElementwisePoint  `json:"elementwise"`
	Stages      []ChannelStagePoint `json:"channel_stage"`
	Callers     []CallerPoint       `json:"callers"`
	Claims      ComputeClaims       `json:"claims"`
}

// PointAt returns the point measured at size n.
func (r ComputeReport) PointAt(n int) (ComputePoint, bool) {
	for _, p := range r.Points {
		if p.Size == n {
			return p, true
		}
	}
	return ComputePoint{}, false
}

// ComputeBenchConfig parameterizes the compute benchmark.
type ComputeBenchConfig struct {
	// Sizes are the square GEMM extents measured, ascending; the claims are
	// evaluated at the last one.
	Sizes []int
	// MinTime is the minimum measured wall time per timing trial; Trials is
	// the number of best-of trials per kernel.
	MinTime time.Duration
	Trials  int
	// AllocIters is the iteration count for the allocs-per-op measurement.
	AllocIters int
}

// DefaultComputeBench is the full configuration behind the committed
// BENCH_compute.json: the 512^3 claim size plus smaller points that show
// where blocking starts to pay.
func DefaultComputeBench() ComputeBenchConfig {
	return ComputeBenchConfig{
		Sizes:      []int{64, 128, 256, 512},
		MinTime:    200 * time.Millisecond,
		Trials:     3,
		AllocIters: 10,
	}
}

// QuickComputeBench is the reduced configuration the registered experiment
// and the package tests run.
func QuickComputeBench() ComputeBenchConfig {
	return ComputeBenchConfig{
		Sizes:      []int{64, 128},
		MinTime:    10 * time.Millisecond,
		Trials:     1,
		AllocIters: 4,
	}
}

// RunComputeBench measures every configured size with deterministic
// operands and derives the claim fields from the largest one.
func RunComputeBench(cfg ComputeBenchConfig) ComputeReport {
	rep := ComputeReport{
		Schema:   ComputeSchema,
		Kernel:   tensor.KernelTier(),
		MaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:   runtime.NumCPU(),
		Sizes:    append([]int(nil), cfg.Sizes...),
	}
	for _, n := range cfg.Sizes {
		rng := tensor.NewRNG(int64(9000 + n))
		a := tensor.Randn(rng, n, n)
		b := tensor.Randn(rng, n, n)
		dst := tensor.New(n, n)
		pb := tensor.PackB32(b)

		p := ComputePoint{Size: n}
		flops := 2 * float64(n) * float64(n) * float64(n)
		p.NaiveGFLOPS = measureGFLOPS(flops, cfg, func() { naiveBatched(dst.Data, a.Data, b.Data, 1, n, n, n) })
		p.BlockedGFLOPS = measureGFLOPS(flops, cfg, func() { tensor.MatMulInto(dst, a, b) })
		f32 := func() { tensor.AffinePackedF32Into(dst.Data, n, a, pb, tensor.Epilogue{}) }
		p.F32GFLOPS = measureGFLOPS(flops, cfg, f32)
		p.BlockedSpeedup = p.BlockedGFLOPS / p.NaiveGFLOPS
		p.F32Speedup = p.F32GFLOPS / p.BlockedGFLOPS
		p.BlockedAllocsPerOp = allocsPerOp(cfg.AllocIters, func() { tensor.MatMulInto(dst, a, b) })
		p.F32AllocsPerOp = allocsPerOp(cfg.AllocIters, f32)
		rep.Points = append(rep.Points, p)
	}
	rep.Shapes = measureShapes(cfg)
	rep.Aggregators = measureAggregators(cfg)
	rep.Elementwise = measureElementwise(cfg)
	rep.Stages = measureChannelStages(cfg)
	rep.Callers = measureCallers(cfg)
	last := rep.Points[len(rep.Points)-1]
	rep.Claims = ComputeClaims{
		BlockedSpeedupAtMax: last.BlockedSpeedup,
		F32SpeedupAtMax:     last.F32Speedup,
	}
	allocs := 0.0
	for _, p := range rep.Points {
		allocs += p.BlockedAllocsPerOp + p.F32AllocsPerOp
	}
	for _, sp := range rep.Shapes {
		allocs += sp.AllocsPerOp
	}
	for _, ap := range rep.Aggregators {
		allocs += ap.AllocsPerOp
	}
	for _, ep := range rep.Elementwise {
		allocs += ep.AllocsPerOp
	}
	for _, cp := range rep.Stages {
		allocs += cp.AllocsPerOp
	}
	rep.Claims.AllocFree = allocs == 0
	return rep
}

// dchagShapes lists the products the benchmark workloads issue (DESIGN.md
// "Compute substrate" has the table): the E x E projections over N*g rows of
// the channel aggregation (with the bias the layer adds as the kernel
// stores) and their two backward products, the per-head
// attention products of a ViT block (T = 64), forward and the transposed-map
// product of its backward (dV, and dK alike) — the channel aggregation's run
// inside the pooled attention pass, the aggregators section —, the first MLP
// layer of a wx_tp2dp2 block on one tensor-parallel rank (128 tokens, E = 64, half of the 256 hidden columns), and the float32
// twins serving runs, the tokenizer's product among them (8 x 64 tokens of
// 2 x 2 patches into E = 32, bias and channel-ID row added, written into its
// group of tokenizeGroup channels; 40 channels per rank per micro-batch).
var dchagShapes = []ShapePoint{
	{Name: "proj_fwd", Op: "AffineInto", Batch: 1, M: 2048, K: 32, N: 32, Epilogue: "bias"},
	{Name: "proj_bwd_dx", Op: "MatMulTInto", Batch: 1, M: 2048, K: 32, N: 32},
	{Name: "proj_bwd_dw", Op: "TMatMulAccInto", Batch: 1, M: 32, K: 2048, N: 32},
	{Name: "vit_scores", Op: "BatchedMatMulTInto", Batch: 8, M: 64, K: 8, N: 64},
	{Name: "vit_context", Op: "BatchedMatMulInto", Batch: 8, M: 64, K: 64, N: 8},
	{Name: "vit_bwd_dv", Op: "BatchedTMatMulInto", Batch: 8, M: 64, K: 64, N: 8},
	{Name: "tp_mlp_fc1", Op: "MatMulInto", Batch: 1, M: 128, K: 64, N: 128},
	{Name: "proj_infer_f32", Op: "AffinePackedF32Into", Batch: 1, M: 2048, K: 32, N: 32, Epilogue: "bias"},
	{Name: "tokenize_f32", Op: "AffinePackedF32Into", Batch: 1, M: 512, K: 4, N: 32, Strided: true, Epilogue: "bias+row"},
	{Name: "vit_scores_f32", Op: "BatchedMatMulTF32Into", Batch: 8, M: 64, K: 8, N: 64},
	{Name: "vit_context_f32", Op: "BatchedMatMulF32Into", Batch: 8, M: 64, K: 64, N: 8},
}

// tokenizeGroup is the channel count of a serving rank's group (serve_* run
// 80 channels in 4 partitions on 2 ranks, one group each): the tokenizer
// writes a channel's tokens tokenizeGroup*E apart.
const tokenizeGroup = 20

// measureShapes fills in the rates of every dchagShapes entry.
func measureShapes(cfg ComputeBenchConfig) []ShapePoint {
	out := make([]ShapePoint, len(dchagShapes))
	for i, sp := range dchagShapes {
		sp.Strided = sp.Strided || sp.Batch > 1 // every batched shape is a per-head product
		step := shapeStep(sp)
		flops := 2 * float64(sp.Batch) * float64(sp.M) * float64(sp.K) * float64(sp.N)
		rng := tensor.NewRNG(int64(7000 + i))
		a := tensor.Randn(rng, sp.Batch, sp.M, sp.K)
		b := tensor.Randn(rng, sp.Batch, sp.K, sp.N)
		c := tensor.New(sp.Batch, sp.M, sp.N)
		stepNs, naiveNs := fastestCalls(cfg, step, func() { naiveBatched(c.Data, a.Data, b.Data, sp.Batch, sp.M, sp.K, sp.N) })
		sp.GFLOPS, sp.NaiveGFLOPS = flops/stepNs, flops/naiveNs
		sp.Speedup = sp.GFLOPS / sp.NaiveGFLOPS
		sp.PackedElems = shapePackedElems(sp)
		sp.AllocsPerOp = allocsPerOp(cfg.AllocIters, step)
		out[i] = sp
	}
	return out
}

// shapePackedElems asks the driver's plan what one product of the shape
// point moves through pack: the entry point fixes the arithmetic, which
// operand is stored transposed and whether B was packed ahead of time.
func shapePackedElems(sp ShapePoint) int {
	dt, at, bt, prepacked := tensor.F64, false, false, false
	switch sp.Op {
	case "MatMulTInto", "BatchedMatMulTInto":
		bt = true
	case "TMatMulAccInto", "BatchedTMatMulInto":
		at = true
	case "AffinePackedF32Into":
		dt, prepacked = tensor.F32, true
	case "BatchedMatMulF32Into":
		dt = tensor.F32
	case "BatchedMatMulTF32Into":
		dt, bt = tensor.F32, true
	}
	return dt.PackedElems(sp.M, sp.K, sp.N, at, bt, prepacked)
}

// measureCallers times the two column-parallel products a wx_tp2dp2 rank
// issues per block — its half of an E x E projection and of the E x 4E MLP
// layer (128 tokens, E = 64, TP 2) — three ways: alone on one processor —
// the kernel's own rate — alone on two, where the rows split, and from two
// goroutines at once on two, where each should keep a processor to itself.
func measureCallers(cfg ComputeBenchConfig) []CallerPoint {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out []CallerPoint
	for _, cp := range []CallerPoint{{Name: "tp_proj", M: 128, K: 64, N: 32}, {Name: "tp_mlp_fc1", M: 128, K: 64, N: 128}} {
		for _, run := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
			cp.MaxProcs, cp.Callers = run[0], run[1]
			out = append(out, cp)
		}
	}
	// Short windows, rows alternating, best window per row: a row and the
	// row it is held against see the same host in the same moments, and a
	// window the host disturbed is simply not the best (fastestCalls' rule).
	for round := 0; round < 10*cfg.Trials; round++ {
		for i := range out {
			runtime.GOMAXPROCS(out[i].MaxProcs)
			out[i].GFLOPSPerCaller = max(out[i].GFLOPSPerCaller, callersGFLOPS(out[i], cfg.MinTime/10))
		}
	}
	return out
}

// callersGFLOPS runs cp.Callers goroutines, each issuing the product on its
// own operands until minTime has passed, and returns their mean rate.
func callersGFLOPS(cp CallerPoint, minTime time.Duration) float64 {
	rates := make([]float64, cp.Callers)
	var wg sync.WaitGroup
	for c := range rates {
		rng := tensor.NewRNG(int64(6000 + c))
		dst, a, b := tensor.New(cp.M, cp.N), tensor.Randn(rng, cp.M, cp.K), tensor.Randn(rng, cp.K, cp.N)
		wg.Add(1)
		go func() {
			defer wg.Done()
			products, start := 0, time.Now()
			for time.Since(start) < minTime {
				tensor.MatMulInto(dst, a, b)
				products++
			}
			rates[c] = 2 * float64(products*cp.M*cp.K*cp.N) / float64(time.Since(start).Nanoseconds())
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(cp.Callers)
}

// naiveBatched is the baseline of the shape points: c = a@b per batch member
// with the scalar ikj loop on contiguous row-major operands.
func naiveBatched(c, a, b []float64, batch, m, k, n int) {
	for bi := 0; bi < batch; bi++ {
		a, b, c := a[bi*m*k:], b[bi*k*n:], c[bi*m*n:]
		for i := 0; i < m; i++ {
			crow := c[i*n : (i+1)*n]
			clear(crow)
			for p, av := range a[i*k : (i+1)*k] {
				for j, bv := range b[p*n : (p+1)*n] {
					crow[j] += av * bv
				}
			}
		}
	}
}

// shapeEpilogue draws the epilogue a shape point names: a bias row of N
// values, and for "bias+row" one residual row added to every row, as the
// tokenizer adds its channel-ID row.
func shapeEpilogue(rng *rand.Rand, sp ShapePoint) tensor.Epilogue {
	ep := tensor.Epilogue{Bias: tensor.Randn(rng, sp.N).Data}
	if sp.Epilogue == "bias+row" {
		ep.Res = tensor.Randn(rng, sp.N).Data
	}
	return ep
}

// shapeStep builds the operands of one shape point and returns the call that
// runs it. Batched shapes are per-head products: Batch = samples x 4 heads,
// operands and the context destination are head views of [samples, T, 4*Dh]
// tensors, score-shaped operands are contiguous [samples, 4, Tq, Tk].
func shapeStep(sp ShapePoint) func() {
	const heads = 4
	rng := tensor.NewRNG(int64(8000 + sp.M + sp.K + sp.N))
	if sp.Batch == 1 {
		switch sp.Op {
		case "MatMulInto":
			dst, a, b := tensor.New(sp.M, sp.N), tensor.Randn(rng, sp.M, sp.K), tensor.Randn(rng, sp.K, sp.N)
			return func() { tensor.MatMulInto(dst, a, b) }
		case "AffineInto":
			dst, a, b := tensor.New(sp.M, sp.N), tensor.Randn(rng, sp.M, sp.K), tensor.Randn(rng, sp.K, sp.N)
			ep := shapeEpilogue(rng, sp)
			return func() { tensor.AffineInto(dst.Data, sp.N, a, b, false, ep) }
		case "MatMulTInto":
			dst, a, b := tensor.New(sp.M, sp.N), tensor.Randn(rng, sp.M, sp.K), tensor.Randn(rng, sp.N, sp.K)
			return func() { tensor.MatMulTInto(dst, a, b) }
		case "TMatMulAccInto":
			dst, a, b := tensor.New(sp.M, sp.N), tensor.Randn(rng, sp.K, sp.M), tensor.Randn(rng, sp.K, sp.N)
			return func() { tensor.TMatMulAccInto(dst, a, b) }
		case "AffinePackedF32Into":
			ldc := sp.N
			if sp.Strided {
				ldc = tokenizeGroup * sp.N
			}
			dst, a := tensor.New(sp.M, ldc), tensor.Randn(rng, sp.M, sp.K)
			pb := tensor.PackB32(tensor.Randn(rng, sp.K, sp.N))
			ep := shapeEpilogue(rng, sp)
			return func() { tensor.AffinePackedF32Into(dst.Data, ldc, a, pb, ep) }
		}
	}
	samples := sp.Batch / heads
	// head builds a [samples, rows, heads*cols] tensor and its per-head view;
	// maps a contiguous [samples, heads, rows, cols] one.
	head := func(rows, cols int) tensor.View {
		return tensor.HeadView(tensor.Randn(rng, samples, rows, heads*cols), heads)
	}
	maps := func(rows, cols int) tensor.View {
		return tensor.MatView(tensor.Randn(rng, samples, heads, rows, cols))
	}
	switch sp.Op {
	case "BatchedMatMulTInto": // scores [Tq,Tk] = q [Tq,Dh] @ k[Tk,Dh]^T
		dst, a, b := maps(sp.M, sp.N), head(sp.M, sp.K), head(sp.N, sp.K)
		return func() { tensor.BatchedMatMulTInto(dst, a, b, 0.5) }
	case "BatchedMatMulTF32Into":
		dst, a, b := maps(sp.M, sp.N), head(sp.M, sp.K), head(sp.N, sp.K)
		return func() { tensor.BatchedMatMulTF32Into(dst, a, b, 0.5) }
	case "BatchedMatMulInto": // context [Tq,Dh] = attn [Tq,Tk] @ v [Tk,Dh]
		dst, a, b := head(sp.M, sp.N), maps(sp.M, sp.K), head(sp.K, sp.N)
		return func() { tensor.BatchedMatMulInto(dst, a, b, 1) }
	case "BatchedMatMulF32Into":
		dst, a, b := head(sp.M, sp.N), maps(sp.M, sp.K), head(sp.K, sp.N)
		return func() { tensor.BatchedMatMulF32Into(dst, a, b, 1) }
	case "BatchedTMatMulInto": // dv [Tk,Dh] = attn [Tq,Tk]^T @ dctx [Tq,Dh]
		dst, a, b := head(sp.M, sp.N), maps(sp.K, sp.M), head(sp.K, sp.N)
		return func() { tensor.BatchedTMatMulInto(dst, a, b, 1) }
	}
	panic(fmt.Sprintf("experiments: no runner for shape point %+v", sp))
}

// dchagAggregators lists the channel aggregations the benchmark workloads
// run, N = 128 locations each (batch 2 x 64 tokens): a partial-aggregation
// layer of the hsi workloads (16 channel tokens), their final layer over 4
// partition tokens, and the final layer at the weather workloads' width.
var dchagAggregators = []AggregatorPoint{
	{N: 128, Group: 16, Embed: 32, Heads: 4},
	{N: 128, Group: 4, Embed: 32, Heads: 4},
	{N: 128, Group: 4, Embed: 64, Heads: 4},
}

// aggregatorFwdMACs counts the forward matrix-product work of one location
// of a cross-attention aggregation over g tokens of width e. Both
// formulations project Q, K and V (3ge^2) and form the g x g score map
// (g^2 e). Unpooled, the value product (g^2 e) and Wo (g e^2) run on all g
// output tokens; pooled, on their mean (g e and e^2).
func aggregatorFwdMACs(g, e int) (pooled, unpooled int) {
	shared := 3*g*e*e + g*g*e
	return shared + g*e + e*e, shared + g*g*e + g*e*e
}

// measureAggregators fills in the times of every dchagAggregators entry.
func measureAggregators(cfg ComputeBenchConfig) []AggregatorPoint {
	out := make([]AggregatorPoint, len(dchagAggregators))
	for i, ap := range dchagAggregators {
		rng := tensor.NewRNG(int64(6000 + i))
		agg := core.NewCrossAttnAggregator("bench.agg", ap.Group, ap.Embed, ap.Heads, 1)
		x := tensor.Randn(rng, ap.N, ap.Group, ap.Embed)
		d := tensor.Randn(rng, ap.N, ap.Embed)
		fwd, bwd := func() { agg.Forward(x) }, func() { agg.Backward(d) }
		ap.FwdMicros = 1e6 * bestSeconds(cfg, fwd)
		ap.BwdMicros = 1e6 * bestSeconds(cfg, bwd) // after a Forward; Backward only reads its caches
		ap.AllocsPerOp = allocsPerOp(cfg.AllocIters, func() { fwd(); bwd() })
		coreFwd, coreBwd := pooledCoreSteps(rng, ap)
		ap.CoreFwdMicros = 1e6 * bestSeconds(cfg, coreFwd)
		ap.CoreBwdMicros = 1e6 * bestSeconds(cfg, coreBwd)
		ap.PooledFwdMACs, ap.UnpooledFwdMACs = aggregatorFwdMACs(ap.Group, ap.Embed)
		ap.PooledBwdMACs, ap.UnpooledBwdMACs = 2*ap.PooledFwdMACs, 2*ap.UnpooledFwdMACs
		out[i] = ap
	}
	return out
}

// pooledCoreSteps builds projection-shaped q, k, v [N, g, E] and the pooled
// gradient [N, E] of one aggregator point and returns the pass's forward (the
// map written, as training runs it) and backward over them.
func pooledCoreSteps(rng *rand.Rand, ap AggregatorPoint) (fwd, bwd func()) {
	n, g, e, h := ap.N, ap.Group, ap.Embed, ap.Heads
	q, k, v, d := tensor.Randn(rng, n, g, e), tensor.Randn(rng, n, g, e), tensor.Randn(rng, n, g, e), tensor.Randn(rng, n, e)
	cbar, pbar, p := tensor.New(n, e), tensor.New(n, h, g), tensor.New(n, h, g, g)
	dq, dk, dv := tensor.New(n, g, e), tensor.New(n, g, e), tensor.New(n, g, e)
	qv, kv, vv := tensor.HeadView(q, h), tensor.HeadView(k, h), tensor.HeadView(v, h)
	alpha := 1 / math.Sqrt(float64(e/h))
	fwd = func() { tensor.PooledAttention(cbar, pbar, p, qv, kv, vv, alpha, false) }
	fwd() // the backward reads the forward's map
	bwd = func() {
		tensor.PooledAttentionBackward(tensor.HeadView(dq, h), tensor.HeadView(dk, h), tensor.HeadView(dv, h), d, pbar, p, qv, kv, vv, alpha)
	}
	return fwd, bwd
}

// dchagElementwise lists the transcendental passes the benchmark workloads
// run outside the pooled attention pass: the softmax over a ViT block's
// attention maps (8 samples x 4 heads x 64 tokens, 64 keys), and the MLP's
// GELU forward and backward.
var dchagElementwise = []ElementwisePoint{
	{Name: "softmax_vit", Op: "SoftmaxLastDimInto", Rows: 8 * 4 * 64, Cols: 64},
	{Name: "gelu_fwd", Op: "GELU.Forward", Rows: 512, Cols: 256},
	{Name: "gelu_bwd", Op: "GELU.Backward", Rows: 512, Cols: 256},
}

// measureElementwise fills in the times of every dchagElementwise entry.
func measureElementwise(cfg ComputeBenchConfig) []ElementwisePoint {
	out := make([]ElementwisePoint, len(dchagElementwise))
	for i, ep := range dchagElementwise {
		rng := tensor.NewRNG(int64(5000 + i))
		x := tensor.Randn(rng, ep.Rows, ep.Cols)
		d := tensor.Randn(rng, ep.Rows, ep.Cols)
		dst := tensor.New(ep.Rows, ep.Cols)
		gelu := nn.NewGELU()
		var step, ref func()
		switch ep.Op {
		case "SoftmaxLastDimInto":
			step, ref = func() { tensor.SoftmaxLastDimInto(dst, x) }, func() { refSoftmax(dst.Data, x.Data, ep.Cols) }
		case "GELU.Forward":
			step, ref = func() { gelu.Forward(x) }, func() { refGELU(dst.Data, x.Data) }
		case "GELU.Backward":
			gelu.Forward(x) // Backward reads the cached input
			step, ref = func() { gelu.Backward(d) }, func() { refGELUGrad(dst.Data, x.Data, d.Data) }
		default:
			panic(fmt.Sprintf("experiments: no runner for elementwise point %+v", ep))
		}
		perElem := 1e9 / float64(ep.Rows*ep.Cols)
		ep.RefNsPerElem = perElem * bestSeconds(cfg, ref)
		ep.NsPerElem = perElem * bestSeconds(cfg, step)
		ep.Speedup = ep.RefNsPerElem / ep.NsPerElem
		ep.AllocsPerOp = allocsPerOp(cfg.AllocIters, step)
		out[i] = ep
	}
	return out
}

// refSoftmax, refGELU and refGELUGrad are the baselines of the elementwise
// points: the scalar libm loops softmax and GELU ran before tensor.Exp.
func refSoftmax(dst, src []float64, n int) {
	for lo := 0; lo < len(src); lo += n {
		row, d := src[lo:lo+n], dst[lo:lo+n]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		s := 0.0
		for i, v := range row {
			d[i] = math.Exp(v - m)
			s += d[i]
		}
		inv := 1 / s
		for i := range d {
			d[i] *= inv
		}
	}
}

const (
	geluC = 0.7978845608028654 // sqrt(2/pi)
	geluA = 0.044715
)

func refGELU(dst, x []float64) {
	for i, v := range x {
		dst[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+geluA*v*v*v)))
	}
}

func refGELUGrad(dst, x, grad []float64) {
	for i, v := range x {
		t := math.Tanh(geluC * (v + geluA*v*v*v))
		dst[i] = grad[i] * (0.5*(1+t) + 0.5*v*(1-t*t)*geluC*(1+3*geluA*v*v))
	}
}

// measureGFLOPS times step (flops floating-point operations per call) and
// returns the best trial's rate in GFLOP/s.
func measureGFLOPS(flops float64, cfg ComputeBenchConfig, step func()) float64 {
	return flops / bestSeconds(cfg, step) / 1e9
}

// bestSeconds times repeated invocations of step, growing the repetition
// count until a trial spans cfg.MinTime, and returns the best trial's
// seconds per call.
func bestSeconds(cfg ComputeBenchConfig, step func()) float64 {
	step() // warm the pool, the packed panels and layer-owned scratch
	best := 0.0
	for trial := 0; trial < cfg.Trials; trial++ {
		reps := 1
		for {
			start := time.Now()
			for i := 0; i < reps; i++ {
				step()
			}
			elapsed := time.Since(start)
			if elapsed >= cfg.MinTime || reps >= 1<<24 {
				if per := elapsed.Seconds() / float64(reps); best == 0 || per < best {
					best = per
				}
				break
			}
			// Aim past MinTime with a 20% margin so the next attempt lands.
			grown := 2 * reps
			if elapsed > 0 {
				grown = int(1.2*float64(reps)*float64(cfg.MinTime)/float64(elapsed)) + 1
			}
			reps = grown
		}
	}
	return best
}

// allocsPerOp reports the mean heap allocations per invocation of step in
// steady state (after a warm-up call that grows the pool's panel scratch).
func allocsPerOp(iters int, step func()) float64 {
	step()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// runCompute renders the quick compute benchmark as the registered
// experiment.
func runCompute() Result {
	rep := RunComputeBench(QuickComputeBench())
	tab := &Table{
		Title: fmt.Sprintf("Measured GEMM throughput (kernel=%s, GOMAXPROCS=%d)", rep.Kernel, rep.MaxProcs),
		Headers: []string{"size", "naive GFLOP/s", "blocked f64 GFLOP/s", "f32 GFLOP/s",
			"blocked/naive", "f32/f64", "allocs/op"},
	}
	for _, p := range rep.Points {
		tab.Add(fmt.Sprint(p.Size),
			fmt.Sprintf("%.2f", p.NaiveGFLOPS), fmt.Sprintf("%.2f", p.BlockedGFLOPS),
			fmt.Sprintf("%.2f", p.F32GFLOPS),
			fmt.Sprintf("%.2fx", p.BlockedSpeedup), fmt.Sprintf("%.2fx", p.F32Speedup),
			fmt.Sprintf("%.0f/%.0f", p.BlockedAllocsPerOp, p.F32AllocsPerOp))
	}
	tab.Note("wall-clock measurement: packed register-tiled driver vs the pre-blocking naive kernel; f32 runs against prepacked weight panels (the serving configuration)")
	shapes := &Table{
		Title:   "Measured throughput at the shapes the D-CHAG workloads issue",
		Headers: []string{"shape", "entry point", "batch x m x k x n", "packed elems", "naive GFLOP/s", "GFLOP/s", "speedup", "allocs/op"},
	}
	for _, sp := range rep.Shapes {
		op := sp.Op
		if sp.Epilogue != "" {
			op += " + " + sp.Epilogue
		}
		shapes.Add(sp.Name, op, fmt.Sprintf("%d x %dx%dx%d", sp.Batch, sp.M, sp.K, sp.N), fmt.Sprint(sp.PackedElems),
			fmt.Sprintf("%.2f", sp.NaiveGFLOPS), fmt.Sprintf("%.2f", sp.GFLOPS),
			fmt.Sprintf("%.2fx", sp.Speedup), fmt.Sprintf("%.0f", sp.AllocsPerOp))
	}
	shapes.Note("batched shapes read attention heads in place out of [N,T,H*Dh] layouts (tensor.HeadView), the tokenizer writes into its group's [N,g,E] input; + bias / + bias+row is the epilogue the kernel adds as it stores; packed elems is what one product copies into panels (a transposed B, a ragged tile, float32 narrowing), everything else the kernel reads where it lies; naive is the scalar ikj loop on contiguous operands of the same extents")
	aggs := &Table{
		Title:   "Measured cross-attention channel aggregation (core.CrossAttnAggregator)",
		Headers: []string{"N x g x E, heads", "forward us", "backward us", "pass fwd / bwd us", "allocs/op", "fwd MACs/location pooled", "unpooled", "pooled/unpooled"},
	}
	for _, ap := range rep.Aggregators {
		aggs.Add(fmt.Sprintf("%d x %d x %d, %d", ap.N, ap.Group, ap.Embed, ap.Heads),
			fmt.Sprintf("%.0f", ap.FwdMicros), fmt.Sprintf("%.0f", ap.BwdMicros),
			fmt.Sprintf("%.0f / %.0f", ap.CoreFwdMicros, ap.CoreBwdMicros), fmt.Sprintf("%.0f", ap.AllocsPerOp),
			fmt.Sprint(ap.PooledFwdMACs), fmt.Sprint(ap.UnpooledFwdMACs),
			fmt.Sprintf("%.2f", float64(ap.PooledFwdMACs)/float64(ap.UnpooledFwdMACs)))
	}
	aggs.Note("the layer takes the group mean on the attention map, so the value product and Wo run on one token per location; unpooled is the same layer with the mean taken last; backward MACs are twice forward in both; the pass is the pooled attention between the projections (tensor.PooledAttention and its backward)")
	elems := &Table{
		Title:   "Measured softmax and GELU on the vector exp kernel (tensor.Exp)",
		Headers: []string{"routine", "entry point", "rows x cols", "libm loop ns/elem", "ns/elem", "speedup", "allocs/op"},
	}
	for _, ep := range rep.Elementwise {
		elems.Add(ep.Name, ep.Op, fmt.Sprintf("%d x %d", ep.Rows, ep.Cols),
			fmt.Sprintf("%.2f", ep.RefNsPerElem), fmt.Sprintf("%.2f", ep.NsPerElem),
			fmt.Sprintf("%.2fx", ep.Speedup), fmt.Sprintf("%.0f", ep.AllocsPerOp))
	}
	elems.Note("the libm loop is the scalar math.Exp softmax or math.Tanh GELU over the same data; the shipped routines take one exp per element through the AVX2 kernel or its bit-identical Go twin")
	stages := &Table{
		Title:   "Measured serial channel stage (model.SerialStage), shipped / chained through the channel-major entry points",
		Headers: []string{"stage", "ch x batch x E, tree, kind", "forward us", "backward us", "infer f32 us", "scratch / token tensor", "allocs/op"},
	}
	for _, cp := range rep.Stages {
		tok := float64(cp.TokenBytes)
		stages.Add(cp.Name, fmt.Sprintf("%d x %d x %d, %d, %s", cp.Channels, cp.Batch, cp.Embed, cp.Tree, cp.Kind),
			fmt.Sprintf("%.0f / %.0f", cp.Stage.FwdNs/1e3, cp.Chained.FwdNs/1e3), fmt.Sprintf("%.0f / %.0f", cp.Stage.BwdNs/1e3, cp.Chained.BwdNs/1e3),
			fmt.Sprintf("%.0f / %.0f", cp.Stage.InferNs/1e3, cp.Chained.InferNs/1e3),
			fmt.Sprintf("%.1f / %.1f", float64(cp.Stage.ScratchBytes)/tok, float64(cp.Chained.ScratchBytes)/tok), fmt.Sprintf("%.0f", cp.AllocsPerOp))
	}
	stages.Note("the shipped stage tokenizes each channel straight into its group's input, bias and channel-ID row added on the way; chained is the same layers through tokenizer output, channel-ID pass and fold; scratch is every tensor held outside parameters and group aggregators, in units of one [B,C,T,E] token tensor")
	callers := &Table{
		Title:   "Measured throughput per caller with concurrent callers (tensor.MatMulInto)",
		Headers: []string{"product", "m x k x n", "GOMAXPROCS", "callers", "GFLOP/s per caller"},
	}
	for _, cp := range rep.Callers {
		callers.Add(cp.Name, fmt.Sprintf("%dx%dx%d", cp.M, cp.K, cp.N), fmt.Sprint(cp.MaxProcs), fmt.Sprint(cp.Callers), fmt.Sprintf("%.2f", cp.GFLOPSPerCaller))
	}
	callers.Note("each caller runs the product on its own operands; a product splits its rows over goroutines only while fewer products are in flight than there are processors, so two ranks on two processors each keep the one-processor rate")
	return Result{ID: "compute", Title: "Compute substrate", Tables: []*Table{tab, shapes, aggs, elems, stages, callers}}
}
