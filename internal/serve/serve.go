// Package serve is the asynchronous, batched inference engine over the
// device mesh — the request-facing tier the ROADMAP's north star calls for,
// decoupled from the sharded compute tier by a queue and a dynamic
// micro-batcher (the shape cross-cloud/hierarchical FL serving systems
// share: admission control in front, batching in the middle, sharded
// replicas behind).
//
// The pipeline, front to back:
//
//	Submit/Do ──▶ response cache ──▶ bounded queue ──▶ micro-batcher ──▶ work channel ──▶ host replicas
//	 (admission     (content hit:      (backpressure)    (flush on max       (one reader      (TP groups of
//	  control:       answer now;                          batch or max        per replica      q ranks; rank 0
//	  ErrQueueFull)  miss: coalesce)                      wait deadline)      leader)          answers)
//
// The compute tier is the engine's own host: one dist.Mesh whose rank
// goroutines serve one model. A running engine hot-swaps to a newly
// committed checkpoint (Engine.Swap, AutoSwap) without dropping a request:
// the new instance loads beside the old one, and the mesh serves both until
// the old one drains. The forward is bitwise deterministic and no-grad,
// which makes responses content-addressable: Config.CacheBytes enables a
// sharded LRU keyed by (instance, dtype, grid, channel set, input bytes) in
// front of the batcher.
//
// Requests carry a single [c, h, w] snapshot on any spatial grid and any
// subset of the model's channels: the batcher regrids each input to the
// model grid (data.RegridBatch, the same bilinear path the training
// loaders use) and scatters partial channel sets onto a zero canvas —
// zero is the per-channel mean under the training normalization, and
// filling the gap across channels is exactly what the D-CHAG aggregation
// stage learns to do.
//
// Each replica is one TP group of Config.Ranks rank goroutines pinned to a
// dist.Mesh (spec TP=Ranks, DP=Replicas): the group leader pulls an
// assembled batch and broadcasts it over the group as a view (each rank
// reads its channel shard where the batch lies), every rank runs the no-grad
// forward (model.FoundationModel.Infer — D-CHAG's AllGather of partial
// tokens, as in training, after which each rank finishes its share of the
// batch and an AllGather of the predictions completes it), and the leader
// unpatchifies and fans responses back out. Models come from a Source: FromCheckpoint
// opens any dchag-ckpt/v2 directory read-only and reshards it to the
// serving topology (save at p ranks, serve at any q dividing the logical
// partition count, including q=1), FromArch builds fresh seeded weights
// for benchmarks.
package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Errors returned by the admission path.
var (
	// ErrQueueFull is the admission-control rejection: the bounded request
	// queue is at capacity. Clients should back off and retry.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed reports a Submit against a closed (or failed) engine.
	ErrClosed = errors.New("serve: engine closed")
)

// Request is one inference request: a single snapshot to run the forecast
// forward pass on.
type Request struct {
	// ID is echoed in the Response; the engine does not interpret it.
	ID string
	// Input is the snapshot [c, h, w]. Any spatial grid is accepted — the
	// batcher regrids to the model's ImgH x ImgW — and c is either the
	// model's full channel count (Channels nil) or len(Channels).
	Input *tensor.Tensor
	// Channels optionally names the global channel index of each Input row,
	// letting a client submit a partial channel set; unlisted channels are
	// zero-filled (the normalized-data mean). Indices must be in range and
	// strictly increasing.
	Channels []int
}

// Response is the answer to one Request.
type Response struct {
	// ID echoes the request.
	ID string
	// Output is the model's predicted image [C, H, W] on the model grid.
	Output *tensor.Tensor
	// BatchSize is the size of the micro-batch the request was served in.
	BatchSize int
	// Queued is the time spent waiting for the micro-batch to form; Total
	// is enqueue-to-response latency (queueing + batching + forward).
	Queued, Total time.Duration
	// Cached marks a response answered from the content-addressable cache —
	// either an immediate hit (BatchSize 0, Queued 0) or a request that
	// coalesced onto an identical in-flight forward (BatchSize of that
	// forward's micro-batch). Cached outputs are shared tensors: treat them
	// as read-only, exactly like any other Response.Output.
	Cached bool
	// Err is set when the engine shut down before the request was served.
	Err error
}

// Config sizes the serving engine.
type Config struct {
	// Ranks is the TP (D-CHAG channel-sharding) width of each replica; it
	// must divide the model's logical partition count. At 1 each replica
	// owns every partition and channel.
	Ranks int
	// Replicas is the number of independent model replicas consuming
	// batches; the mesh world is Ranks*Replicas.
	Replicas int
	// MaxBatch caps the micro-batch size; a full batch flushes immediately.
	// 1 disables batching.
	MaxBatch int
	// MaxWait is the batching deadline: a partial batch flushes once its
	// oldest request has waited this long.
	MaxWait time.Duration
	// QueueDepth bounds the request queue (admission control); Submit
	// returns ErrQueueFull beyond it. 0 defaults to 4*MaxBatch*Replicas.
	QueueDepth int
	// DType selects the arithmetic of the replicas' no-grad forward. The
	// zero value (tensor.F64) serves bitwise training-equivalent outputs;
	// tensor.F32 runs the matrix products in float32 over prepacked weight
	// panels — faster, with outputs within the tolerance contract documented
	// in DESIGN.md ("Compute substrate").
	DType tensor.DType
	// CacheBytes bounds the content-addressable response cache (0 disables
	// it, the default). The forward is bitwise deterministic, so a response
	// is fully determined by (model instance, dtype, input grid, channel
	// set, input bytes): a repeated request is answered from the cache
	// without queuing, and identical concurrent requests coalesce onto a
	// single forward. Eviction is sharded LRU at this byte bound.
	CacheBytes int64
	// Trace, when non-nil, records the full request lifecycle: mesh
	// collectives and per-batch forwards on rows [0, Ranks*Replicas) (one
	// row per world rank) and the engine front end — enqueue, batch
	// formation, dispatch, respond, cache fill — on the tracer's last row,
	// named "engine" in the exported trace. Size it with obs.NewTracer(Ranks*Replicas+1, capacity). Start builds
	// the traced host from it. Nil disables tracing at zero cost on the hot
	// paths.
	Trace *obs.Tracer
}

// withDefaults fills the zero fields; a negative one is left for validate
// to refuse.
func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.MaxWait == 0 {
		c.MaxWait = 10 * time.Millisecond
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxBatch * c.Replicas
	}
	return c
}

// validate rejects nonsensical configurations before any goroutine starts.
func (c Config) validate() error {
	if c.Ranks < 1 || c.Replicas < 1 || c.MaxBatch < 1 || c.MaxWait < 0 || c.QueueDepth < 1 || c.CacheBytes < 0 {
		return fmt.Errorf("serve: invalid config %+v", c)
	}
	return nil
}
