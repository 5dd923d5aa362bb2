package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// metricDecl declares one metric of BENCHMARK.json; a test keeps the two in
// step. Bound is the share of the parent's median an end-to-end metric may
// get worse by; per-layer metrics carry none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees; every workload reports all of
// them with tracing off.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"peak_live_heap_mb", "MB", "lower", 0.20},
}

// perLayer lists the per-layer metrics of the traced pass. Every workload
// prints every one; a metric of a layer the workload does not run reads 0.
var perLayer = []metricDecl{
	{"data.batch_wait_ms", "ms", "lower", 0},
	{"model.fwd_ms", "ms", "lower", 0},
	{"model.bwd_ms", "ms", "lower", 0},
	{"model.fwd_self_ms", "ms", "lower", 0},
	{"model.bwd_self_ms", "ms", "lower", 0},
	{"core.stage_fwd_ms", "ms", "lower", 0},
	{"core.stage_bwd_ms", "ms", "lower", 0},
	{"core.stage_fwd_self_ms", "ms", "lower", 0},
	{"nn.patch_embed_fwd_ms", "ms", "lower", 0},
	{"nn.patch_embed_bwd_ms", "ms", "lower", 0},
	{"core.partial_agg_fwd_ms", "ms", "lower", 0},
	{"core.partial_agg_bwd_ms", "ms", "lower", 0},
	{"core.final_agg_fwd_ms", "ms", "lower", 0},
	{"core.final_agg_bwd_ms", "ms", "lower", 0},
	{"nn.blocks_fwd_ms", "ms", "lower", 0},
	{"nn.blocks_bwd_ms", "ms", "lower", 0},
	{"parallel.blocks_fwd_ms", "ms", "lower", 0},
	{"parallel.blocks_bwd_ms", "ms", "lower", 0},
	{"parallel.blocks_self_ms", "ms", "lower", 0},
	{"nn.loss_ms", "ms", "lower", 0},
	{"comm.tp.calls_per_step", "count", "lower", 0},
	{"comm.tp.mb_per_step", "MB", "lower", 0},
	{"comm.tp.ms_per_step", "ms", "lower", 0},
	{"comm.tp.skew_ms", "ms", "lower", 0},
	{"comm.dp.calls_per_step", "count", "lower", 0},
	{"comm.dp.mb_per_step", "MB", "lower", 0},
	{"comm.dp.ms_per_step", "ms", "lower", 0},
	{"comm.dp.skew_ms", "ms", "lower", 0},
	{"parallel.dp_sync_ms", "ms", "lower", 0},
	{"optim.clip_ms", "ms", "lower", 0},
	{"optim.step_ms", "ms", "lower", 0},
	{"ckpt.stall_ms", "ms", "lower", 0},
	{"ckpt.shard_write_ms", "ms", "lower", 0},
	{"ckpt.mb_written", "MB", "lower", 0},
	{"dist.tp2_speedup", "ratio", "higher", 0},
	{"tensor.gemm_f64_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_f32_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_f64_gflops_x2", "GFLOP/s", "higher", 0},
	{"serve.open_ms_p50", "ms", "lower", 0},
	{"serve.open_ms_p90", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p90", "ms", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.max_queue_depth", "count", "lower", 0},
	{"serve.rejected_share", "ratio", "lower", 0},
	{"serve.service_ms_p50", "ms", "lower", 0},
	{"model.infer_ms_b1", "ms", "lower", 0},
	{"model.infer_ms_b8", "ms", "lower", 0},
	{"serve.dispatch_ms_p50", "ms", "lower", 0},
	{"serve.cache_hit_share", "ratio", "higher", 0},
	{"serve.cache_coalesced_share", "ratio", "higher", 0},
	{"serve.hit_ms_p50", "ms", "lower", 0},
	{"serve.miss_ms_p50", "ms", "lower", 0},
	{"serve.gen_late_ms_p90", "ms", "lower", 0},
	{"serve.open_rate_rps", "1/s", "higher", 0},
	{"serve.within_limit_share", "ratio", "higher", 0},
	{"serve.op_ms_p90_high", "ms", "lower", 0},
	{"serve.backlog_growth", "ratio", "lower", 0},
	{"runtime.alloc_kb_per_op", "KB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
	{"run.op_ms_p90", "ms", "lower", 0},
	{"run.op_ms_tail", "ms", "lower", 0},
	{"run.ops", "count", "higher", 0},
}

// trainSpec is one training workload. An episode builds the model, runs
// warmup untimed steps and then steps timed ones; a run starts episodes
// until its time is used, so set-up is measured several times. The op counts
// are constants: they are the same on a parent commit and its change.
type trainSpec struct {
	arch model.Arch
	// serial trains model.NewSerialDCHAGEquivalent(arch, arch.Partitions)
	// through train.SerialCheckpointed: one worker, no mesh. Otherwise the
	// workload runs on tp x dp ranks, through train.Distributed when dp == 1
	// and train.Hybrid when dp > 1.
	serial bool
	tp, dp int
	tpViT  bool
	// procs is the GOMAXPROCS the workload runs at: 1 for the single-worker
	// baseline, which is then one goroutine on one processor, 2 otherwise.
	procs int
	// weather selects data.NewWeather forecasting pairs; otherwise
	// data.NewHyperspectral images with the MAE objective.
	weather bool
	batch   int
	mask    float64
	// nBatches distinct global batches are generated during set-up and the
	// batch function cycles through them.
	nBatches      int
	warmup, steps int
	// ckptEvery > 0 checkpoints into a temporary directory every that many
	// steps (and after the last one, as the training loops do).
	ckptEvery int
	// oracle is how many leading losses are compared with a plain serial run
	// of the same logical model after timing; lossTol bounds the difference
	// relative to the loss.
	oracle  int
	lossTol float64
}

const (
	trainLR     = 1e-3
	trainWD     = 0.05
	trainClip   = 1.0
	probeReps   = 30
	gemmN       = 256
	serveWindow = 16
)

// serveSpec is one serving workload. An episode starts an engine, warms it
// up and saturates it with a closed loop (phase sat: throughput and the
// latency its callers see). The traced pass then drives it with Poisson
// arrivals at a fixed rate below capacity (phase open: latency from each
// request's due time) and near capacity (phase high).
type serveSpec struct {
	arch model.Arch
	cfg  serve.Config
	// hotSet > 0 draws hotShare of the requests from that many fixed inputs;
	// every other request carries an input no other request carries.
	hotSet   int
	hotShare float64
	warmup   int
	satN     int
	openN    int
	// openRate is frozen at about 38% of the capacity measured when the
	// workload was defined; highRate, about 85%, drives the traced pass's
	// knee probe for highN requests.
	openRate, highRate float64
	highN              int
	// limitMs is the latency limit of phase open: three times the p90
	// measured when the workload was defined.
	limitMs float64
	// checkEvery compares every that many-th answer with a direct Infer.
	checkEvery int
	// outTol bounds |served - direct| relative to the output scale.
	outTol float64
}

// workload is one named set of inputs.
type workload struct {
	name, why string
	train     *trainSpec
	serve     *serveSpec
}

func hsiArch() model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: 64, ImgH: 16, ImgW: 16, Patch: 2,
			Embed: 32, Heads: 4, Tree: 0, Kind: core.KindCross,
		},
		Depth:      2,
		Partitions: 4,
	}
}

func weatherArch(embed, depth int) model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: 80, ImgH: 16, ImgW: 16, Patch: 2,
			Embed: embed, Heads: 4, Tree: 0, Kind: core.KindLinear,
		},
		Depth:      depth,
		Partitions: 4,
	}
}

func serveConfig(dt tensor.DType) serve.Config {
	return serve.Config{
		Ranks: 2, Replicas: 1, MaxBatch: 8, MaxWait: 2 * time.Millisecond,
		// Deeper than the default 32 so that Poisson bursts below capacity
		// are queued, not refused: the workloads are chosen so that no
		// operation fails.
		QueueDepth: 256,
		DType:      dt, CacheBytes: 256 << 20,
	}
}

// workloads returns the benchmark's workloads. quick shrinks every shape and
// count so that the whole pipeline runs in about a second per workload; it
// exists for the tests and measures nothing.
func workloads(quick bool) []workload {
	hsi := trainSpec{
		arch: hsiArch(), procs: 2, batch: 2, mask: 0.5, nBatches: 8,
		warmup: 5, steps: 30, oracle: 8, lossTol: 1e-12,
	}
	wx := trainSpec{
		arch: weatherArch(64, 8), procs: 2, tp: 2, dp: 2, tpViT: true, weather: true,
		batch: 4, nBatches: 4, warmup: 4, steps: 24, ckptEvery: 14,
		oracle: 8, lossTol: 1e-12,
	}
	unique := serveSpec{
		arch: weatherArch(32, 4), cfg: serveConfig(tensor.F32),
		warmup: 200, satN: 400, openN: 200, openRate: 70, highRate: 150, highN: 450,
		limitMs: 60, checkEvery: 50, outTol: 1e-4,
	}
	repeat := unique
	repeat.hotSet, repeat.hotShare = 256, 0.9
	// The warm-up draws the hot set about three times over, so phase sat
	// meets a filled cache.
	repeat.warmup, repeat.satN, repeat.openN, repeat.openRate = 800, 2500, 1000, 400
	repeat.highRate, repeat.highN = 900, 2700
	repeat.limitMs = 20
	if quick {
		tiny := model.Arch{
			Config: core.Config{Channels: 8, ImgH: 4, ImgW: 4, Patch: 2, Embed: 8, Heads: 2, Kind: core.KindCross},
			Depth:  1, Partitions: 4,
		}
		hsi.arch = tiny
		hsi.nBatches, hsi.warmup, hsi.steps, hsi.oracle = 2, 2, 10, 4
		wx.arch = tiny
		wx.arch.Kind = core.KindLinear
		wx.arch.Depth = 2
		wx.nBatches, wx.warmup, wx.steps, wx.ckptEvery, wx.oracle = 2, 2, 10, 6, 4
		unique.arch = wx.arch
		unique.cfg = serveConfig(tensor.F64)
		unique.warmup, unique.satN, unique.openN, unique.highN = 20, 100, 80, 60
		unique.openRate, unique.highRate, unique.limitMs = 400, 800, 1000
		unique.checkEvery, unique.outTol = 10, 1e-9
		hot := repeat.hotShare
		repeat = unique
		repeat.hotSet, repeat.hotShare = 16, hot
	}
	serial, tp2 := hsi, hsi
	serial.serial, serial.procs = true, 1
	serial.oracle = 0
	tp2.tp, tp2.dp = 2, 1
	return []workload{
		{name: "hsi_serial", train: &serial,
			why: "plain single-worker baseline: channel stage dominates, no comm, so only core/nn/tensor kernels move it"},
		{name: "hsi_tp2", train: &tp2,
			why: "same model with channels sharded over 2 ranks (pure D-CHAG): forward AllGather only, TP comm and rank skew appear"},
		{name: "wx_tp2dp2", train: &wx,
			why: "ViT-heavy weather model on 2x2 TPxDP with checkpoints: TP blocks, DP AllReduce, clip and AdamW dominate; 4 ranks on 2 cores"},
		{name: "serve_unique", serve: &unique,
			why: "every request distinct: queue, batcher, dispatch and f32 infer do the work, the cache only misses and fills"},
		{name: "serve_repeat", serve: &repeat,
			why: "90% of requests from a 256-input hot set: cache lookup and coalescing do the work, the forward path is bypassed"},
	}
}

// procs is the GOMAXPROCS the workload is measured at.
func (w workload) procs() int {
	if w.train != nil {
		return w.train.procs
	}
	return 2
}

// findWorkload looks a workload up by name.
func findWorkload(name string, quick bool) (workload, bool) {
	for _, w := range workloads(quick) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
