// Command dchag-bench regenerates the paper's evaluation figures as text
// tables and emits the topology-aware sweep as machine-readable JSON.
//
// Usage:
//
//	dchag-bench                 # run every experiment
//	dchag-bench -fig fig09      # run one figure
//	dchag-bench -fig sweep      # the 8-512 GCD step-time sweep
//	dchag-bench -list           # list available experiments
//	dchag-bench -json out.json  # write the sweep report as JSON (no tables)
//
// -json, -list and -fig each pick a mode; the command refuses more than one
// of them, and a -fig no experiment has, before any work.
//
// Figures 6-9 and 13-16 and the sweep are analytic (internal/perfmodel on
// the Frontier machine model); figures 11 and 12 train real reduced-scale
// models on the simulated rank substrate and take a few seconds each.
//
// # JSON schema (dchag-bench/sweep/v2)
//
// The -json flag writes one experiments.SweepReport object. The schema is a
// stable contract for perf-trajectory tooling (CI regenerates the committed
// BENCH_sweep.json, requires it byte-identical, and uploads it):
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
package main
