// Command dchag-serve serves forward-only inference from any dchag-ckpt/v2
// checkpoint over the simulated device mesh: a bounded request queue with
// admission control, a dynamic micro-batcher (flush on batch-size cap or
// latency deadline), and worker replicas pinned to the mesh — each replica
// a TP group of -ranks goroutine ranks running the no-grad D-CHAG forward,
// resharding the checkpoint to the serving topology on load (save at p
// ranks, serve at any q dividing the logical partition count).
//
// Because the no-grad forward is bitwise deterministic, responses are
// content-addressable: -cache-mb puts a sharded, byte-bounded LRU response
// cache in front of the micro-batcher, keyed by (checkpoint instance, dtype,
// input grid, channel set, input bytes). A hit returns without queuing;
// identical concurrent misses coalesce onto a single forward. -watch polls
// the -ckpt directory for newer committed checkpoints (the manifest is
// written last, so partial saves are never picked up) and hot swaps them in
// without dropping in-flight requests; the swap invalidates only the
// replaced model's cache entries.
//
// Modes:
//
//	dchag-serve -ckpt ckpt/ -listen :8080 [-cache-mb M] [-watch]
//	    Serve HTTP until interrupted. Endpoints:
//	      POST /v1/predict  {"id","shape":[c,h,w],"values":[...],"channels":[...]}
//	                        -> {"id","shape":[C,H,W],"values":[...],
//	                            "batch_size","queued_ms","total_ms"}
//	                        Inputs on any spatial grid are bilinearly
//	                        regridded to the model grid; "channels" names a
//	                        partial channel set (missing channels are
//	                        zero-filled, the normalized-data mean).
//	                        429 + Retry-After signals queue-full backpressure;
//	                        422 a prediction that is not finite (JSON
//	                        cannot carry NaN or infinity).
//	      GET  /v1/stats    serve.Snapshot as JSON
//	      GET  /healthz     200 while live, 503 after shutdown
//
//	dchag-serve -ckpt ckpt/ -loadgen [-requests N] [-concurrency K] [-p99-limit D]
//	    Serve the checkpoint at -ranks ranks (any count dividing its logical
//	    partitions: the reshard round trip) and drive N requests through the
//	    full queue/batcher/mesh path — over HTTP when -listen is set,
//	    in-process otherwise — then print the metrics and exit. Exits 1 on
//	    any request error or when the server-side total-latency p99 exceeds
//	    -p99-limit. `make serve-smoke` trains a checkpoint with
//	    `dchag-train -save` and runs this mode over HTTP against it.
//
// -ckpt is required in both modes; `dchag-train -save DIR` writes one.
package main
