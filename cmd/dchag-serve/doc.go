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
//	dchag-serve -loadgen [-requests N] [-concurrency K] [-p99-limit D]
//	    Hermetic smoke mode: with no -ckpt it first trains a tiny demo model
//	    at -train-ranks ranks and checkpoints it, then serves the checkpoint
//	    at -ranks ranks (a different topology — the reshard round trip) and
//	    drives N requests through the full queue/batcher/mesh path — over
//	    HTTP when -listen is set, in-process otherwise. Exits 1 on any
//	    request error or when the server-side total-latency p99 exceeds
//	    -p99-limit. This is what `make serve-smoke` runs in CI.
//
//	dchag-serve -swap-smoke [-requests N] [-concurrency K]
//	    Hermetic hot-swap smoke: self-train two checkpoints of the same
//	    architecture to different steps, serve the first under sustained
//	    in-process load with the response cache on, hot swap to the second
//	    mid-stream. Exits 1 on any dropped request or if the swap count is
//	    not exactly 1. `make serve-smoke` runs this after the loadgen smoke.
package main
