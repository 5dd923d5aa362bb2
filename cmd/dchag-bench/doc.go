// Command dchag-bench regenerates the paper's evaluation figures as text
// tables and emits the topology-aware sweep as machine-readable JSON.
//
// Usage:
//
//	dchag-bench                 # run every experiment
//	dchag-bench -fig fig09      # run one figure
//	dchag-bench -fig sweep      # the 8-512 GCD step-time sweep
//	dchag-bench -fig trace      # traced bytes, priced, vs the model
//	dchag-bench -list           # list available experiments
//	dchag-bench -json out.json  # write the sweep report as JSON (no tables)
//	dchag-bench -compute out.json           # measured compute substrate report
//	dchag-bench -diff old.json new.json     # perf-trajectory gate (below)
//
// Figures 6-9 and 13-16 and the sweep are analytic (internal/perfmodel on
// the Frontier machine model); figures 11 and 12 train real reduced-scale
// models on the simulated rank substrate and take a few seconds each.
//
// # JSON schema (dchag-bench/sweep/v2)
//
// The -json flag writes one experiments.SweepReport object. The schema is a
// stable contract for perf-trajectory tooling (CI uploads the file as the
// BENCH_sweep.json artifact; future PRs diff these mechanically):
//
//	{
//	  "schema": "dchag-bench/sweep/v2",   // bump on breaking change
//	  "model": "7B",                      // perfmodel shape of the sweep
//	  "channels": 500,                    // workload channel count
//	  "gpus_per_node": 8,                 // Frontier node width
//	  "overlap": true,                    // priced under the overlap model
//	  "scales": [8, 16, ..., 512],        // GCD counts swept
//	  "cliff_gcds": 512,                  // scale of the cliff series
//	  "points": [                         // full TP×FSDP×DP grid
//	    {
//	      "gcds": 512, "nodes": 64,
//	      "method": "D-CHAG", "tp": 2, "fsdp": 4, "dp": 64,
//	      "tp_intra_node": true,          // TP rings stay on one node
//	      "micro_batch": 10,              // largest fitting (0 = OOM)
//	      "fits": true,
//	      "mem_bytes_per_gpu": 6.1e10,
//	      "step_seconds": 4.57,           // overlapped step time
//	      "serial_step_seconds": 5.80,    // compute + total comm
//	      "compute_seconds": 4.04,
//	      "comm_seconds": {               // full per-axis collective time
//	        "tp_seconds": 0.22, "fsdp_seconds": 0.34,
//	        "dp_seconds": 1.19, "total_seconds": 1.76
//	      },
//	      "exposed_seconds": {            // left on the critical path
//	        "tp_seconds": 0.22, "fsdp_seconds": 0.19,
//	        "dp_seconds": 0.12, "total_seconds": 0.53
//	      },
//	      "tflops_per_sec": 56519.7,      // from the overlapped step
//	      "tflops_per_sec_per_node": 883.1,
//	      "best": true                    // top throughput at its scale
//	    }, ...
//	  ],
//	  "cliff": [                          // fixed-batch TP series at
//	    {                                 // cliff_gcds GCDs
//	      "tp": 16, "fsdp": 8, "dp": 4, "micro_batch": 4,
//	      "tp_intra_node": false,
//	      "step_seconds": 1.06, "serial_step_seconds": 1.26,
//	      "compute_seconds": 0.21,
//	      "comm_seconds": { ... }, "exposed_seconds": { ... }
//	    }, ...
//	  ]
//	}
//
// v2 prices step times under the overlap composition model (see
// internal/perfmodel/overlap.go): FSDP parameter traffic prefetches
// against compute, DP gradient buckets overlap the backward pass, TP
// collectives stay on the critical path. step_seconds is compute plus the
// exposed comm; serial_step_seconds is the compute + total-comm
// composition.
//
// Additive fields may appear within v2; readers must ignore unknown keys.
// Field removals or meaning changes bump the schema string.
//
// # JSON schema (dchag-bench/compute/v10)
//
// The -compute flag writes one experiments.ComputeReport object — the
// single-node compute-substrate point of the perf trajectory (CI commits it
// as BENCH_compute.json). Each point is one square GEMM size measured three
// ways: a scalar ikj loop, the blocked register-tiled float64 driver
// (tensor.MatMulInto), and the float32 kernel
// against prepacked weight panels (tensor.AffinePackedF32Into — the serving
// configuration, so packing B stays off the measured path), under the kernel
// tier the host has (tensor.KernelTier). Each shape is one
// product the D-CHAG workloads actually issue — the E x E projections over
// N*g rows and their two backward products, the per-head attention products
// of a ViT block (the channel aggregation's run inside the pooled attention
// pass, timed with the aggregators), a tensor-parallel MLP shard, and the float32 twins serving runs, the
// tokenizer's product among them — through the entry point the model calls,
// with the epilogue the layer has the kernel add as it stores (a Linear's
// bias; the tokenizer's bias and channel-ID row, written into its group's
// input at the group's row stride), next to the scalar ikj loop on
// contiguous operands of the same extents, with the number of operand
// elements the driver copies into panels for it (DESIGN.md "Compute
// substrate": everything else is read where it lies).
// Each aggregator is one whole core.CrossAttnAggregator at a shape the
// workloads run, Forward and Backward timed separately, next to the pooled
// attention pass inside them (tensor.PooledAttention and its backward) on
// operands of the same shape, with the multiply-accumulates per location of the pooled formulation it executes
// (group mean taken on the attention map, DESIGN.md "Channel aggregation:
// pooled attention") and of the unpooled one it replaced. Each elementwise
// point is one transcendental pass of the workloads outside that pass — the
// softmax over a ViT block's maps, GELU forward and backward — on the vector exp kernel (tensor.Exp, DESIGN.md "Elementwise
// transcendentals") next to the scalar math.Exp / math.Tanh loop it replaced,
// over the same data. Each channel-stage point is one whole
// model.SerialStage at a workload's per-rank shape — Forward, Backward and
// F32 Infer, and the bytes of scratch it holds afterwards — next to the same
// layers chained through their channel-major entry points (DESIGN.md
// "Channel stage: one token layout"). Each caller point is one product a
// wx_tp2dp2 rank issues per block, run by one or two goroutines at once under its own
// GOMAXPROCS — the regime the ranks of a mesh run in (DESIGN.md "Compute
// substrate": a product splits its rows only while the products in flight
// leave a processor free):
//
//	{
//	  "schema": "dchag-bench/compute/v10", // bump on breaking change
//	  "kernel": "avx512",                 // product kernels: "avx512" (f64 on AVX-512,
//	                                      // the rest AVX2+FMA), "avx2" or "go"
//	  "maxprocs": 1,                      // GOMAXPROCS during measurement
//	  "num_cpu": 2,                       // the host's processors
//	  "sizes": [64, 128, 256, 512],
//	  "points": [
//	    {
//	      "size": 512,                    // 2*512^3 FLOPs per product
//	      "naive_gflops": 3.2,
//	      "blocked_gflops": 28.8,
//	      "f32_gflops": 50.1,
//	      "blocked_speedup": 9.1,         // blocked / naive
//	      "f32_speedup": 1.74,            // f32 / blocked f64
//	      "blocked_allocs_per_op": 0,     // steady state, reused dst
//	      "f32_allocs_per_op": 0
//	    }, ...
//	  ],
//	  "shapes": [
//	    {
//	      "name": "vit_scores",           // which product of the model
//	      "op": "BatchedMatMulTInto",     // the tensor entry point measured
//	      "batch": 8, "m": 64, "k": 8, "n": 64, // 2*batch*m*k*n FLOPs per call
//	      "strided": true,                // heads read in place (tensor.HeadView)
//	      "packed_elems": 512,            // elements pack moves per product (here B^T, 64 x 8);
//	                                      // gate: 0 for every f64 shape whose B is not transposed
//	      "naive_gflops": 4.8,            // scalar ikj loop, contiguous operands
//	      "gflops": 52.0,                 // both from the fastest call, timed alternately
//	      "speedup": 10.8,                // gflops / naive_gflops
//	      "allocs_per_op": 0              // steady state
//	    },
//	    {
//	      "name": "tokenize_f32", "op": "AffinePackedF32Into",
//	      "batch": 1, "m": 512, "k": 4, "n": 32,
//	      "strided": true,                // into the group input, rows 20*32 apart
//	      "epilogue": "bias+row",         // what the kernel adds as it stores: "bias" on
//	                                      // proj_fwd and proj_infer_f32, the bias and the
//	                                      // channel-ID row here; absent elsewhere
//	      ...
//	    }, ...
//	  ],
//	  "aggregators": [
//	    {
//	      "n": 128, "group": 16, "embed": 32, "heads": 4, // N locations x g tokens x E
//	      "fwd_us": 670, "bwd_us": 978,   // the layer: best trial, one call each
//	      "core_fwd_us": 332,             // the pooled attention pass alone, map written
//	      "core_bwd_us": 263,             // and its backward, best trial
//	      "allocs_per_op": 0,             // steady state, layer forward + backward
//	      "pooled_fwd_macs": 58880,       // per location, matrix products only
//	      "unpooled_fwd_macs": 81920,
//	      "pooled_bwd_macs": 117760,      // backward = 2 x forward in both
//	      "unpooled_bwd_macs": 163840
//	    }, ...
//	  ],
//	  "elementwise": [
//	    {
//	      "name": "softmax_vit",          // which pass of the model
//	      "op": "SoftmaxLastDimInto",     // the entry point measured
//	      "rows": 2048, "cols": 64,       // softmax along cols; GELU over rows*cols
//	      "ref_ns_per_elem": 10.4,        // scalar math.Exp / math.Tanh loop
//	      "ns_per_elem": 1.7,             // the shipped routine, best trial
//	      "speedup": 6.2,                 // ref / shipped; gate: >= 2x unless kernel is "go"
//	      "allocs_per_op": 0              // steady state
//	    }, ...
//	  ],
//	  "channel_stage": [
//	    {
//	      "name": "wx_serve",             // which workload's per-rank stage
//	      "channels": 40, "batch": 8, "embed": 32, "tree": 2, "kind": "L",
//	      "stage": {                      // model.SerialStage, as shipped
//	        "fwd_ns": 1994092, "bwd_ns": 3048812, "infer_f32_ns": 1857646, // fastest call
//	        "scratch_bytes": 13402112     // tensors held outside parameters and group aggregators
//	      },
//	      "chained": { ... },             // the same layers through tokenizer output, channel-ID pass
//	                                      // and fold, timed alternately; gates: stage <= 0.4 x its
//	                                      // scratch bytes and not slower
//	      "token_bytes": 5242880,         // one [B,C,T,E] channel-token tensor
//	      "allocs_per_op": 0              // steady state, fwd + bwd + infer
//	    }, ...
//	  ],
//	  "callers": [                        // sets its own GOMAXPROCS, whatever "maxprocs" says
//	    {
//	      "name": "tp_mlp_fc1",           // which product of a wx_tp2dp2 rank (a TP-2 column shard)
//	      "m": 128, "k": 64, "n": 128,    // tensor.MatMulInto, 2*m*k*n FLOPs per call
//	      "maxprocs": 2, "callers": 2,    // rows: (1,1) the kernel's own rate, (2,1), (2,2)
//	      "gflops_per_caller": 33.1       // mean over callers, best trial; gate: the (2,2) row
//	                                      // >= 0.85 x the (1,1) row where num_cpu >= 2
//	    }, ...
//	  ],
//	  "claims": {                         // evaluated at the largest size
//	    "blocked_speedup_at_max": 9.1,    // gate: >= 2x unless kernel is "go"
//	    "f32_speedup_at_max": 1.74,       // gate: >= 1.5x where kernel is "avx2", a bound under the
//	                                      // measured spread where it is "avx512" (see
//	                                      // TestComputeJSONArtifact), none where it is "go"
//	    "steady_state_alloc_free": true   // gate: always; every section
//	  }
//	}
//
// The report is wall-clock measured, so TestComputeJSONArtifact gates the
// committed artifact on its schema and qualitative claims — blocked at
// least matches naive everywhere, the speedup gates hold and every shape
// beats the naive loop and every elementwise routine runs at least twice
// as fast as its libm loop where "kernel" is not "go", every point, shape,
// aggregator, elementwise routine and channel stage ran allocation-free,
// no float64 shape with an untransposed B packs anything, pooled MACs are at
// most 0.75 x unpooled at group 16, and every channel
// stage holds at most 0.4 x the chained composition's scratch bytes and is
// no slower than it (over its three passes; each pass within 5 %), and two
// concurrent callers on two processors each keep at least 0.85 of one
// caller's one-processor rate — not on exact rates or times. v2 added
// "shapes", v3 "aggregators", v4 "elementwise", v5 "channel_stage", v6
// "packed_elems" on every shape and two more shapes, v7 "callers" and
// "num_cpu", v8 "kernel" in place of the "simd" flag, v9 "core_fwd_us" and
// "core_bwd_us" on every aggregator and drops the channel aggregation's
// batched products and softmax from "shapes" and "elementwise" (the pooled
// attention pass issues neither; "vit_bwd_dv" keeps the transposed-map
// product timed); there is no reader for an earlier version. Additive fields
// may appear within v9; readers must ignore unknown keys.
//
// # Report diffing (-diff)
//
// `dchag-bench -diff old.json new.json` compares two sweep reports and
// exits non-zero when the perf trajectory regressed: the best shape at any
// scale changed, a configuration's simulated step time (serial or
// overlapped) regressed beyond -diff-tol (default 5%), a configuration
// flipped to OOM, or coverage was dropped. Improvements and added
// configurations pass silently. Both reports must carry
// dchag-bench/sweep/v2; any other schema is refused by name.
//
// Exit codes: 0 clean, 1 regressions found, 2 unreadable/incomparable
// reports. CI runs this (`make bench-diff`) against the committed
// BENCH_sweep.json before refreshing it, so every perf-affecting commit
// must either stay inside tolerance or consciously update the committed
// trajectory point.
package main
