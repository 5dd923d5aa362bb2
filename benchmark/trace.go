package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/obs"
)

// eventsPerStep sizes a tracer row: the widest step, wx_tp2dp2's, records
// about 300 spans per rank (one per DDP parameter AllReduce, TP block
// collective and wrapped call).
const eventsPerStep = 1024

// memDelta reads the allocation and collector counters an untraced pass
// moved, per operation.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) report(r *run, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops > 0 {
		r.set("runtime.alloc_kb_per_op", float64(after.TotalAlloc-m.before.TotalAlloc)/1e3/float64(ops))
	}
	r.set("runtime.gc_cycles", float64(after.NumGC-m.before.NumGC))
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
}

// tracedSteps holds, per traced step, every rank's breakdown of it.
type tracedSteps [][]spanSums

// med is the median over steps of the largest value any rank shows: a step
// waits for its slowest rank.
func (t tracedSteps) med(f func(spanSums) float64) float64 {
	var xs []float64
	for _, ranks := range t {
		worst := 0.0
		for _, s := range ranks {
			worst = max(worst, f(s))
		}
		xs = append(xs, worst)
	}
	return median(xs)
}

// skew is the median over steps of the gap between the rank that spent
// longest in a span key and the one that spent least: in a collective that
// gap is time the early ranks waited for the late one.
func (t tracedSteps) skew(key string) float64 {
	var xs []float64
	for _, ranks := range t {
		lo, hi := ranks[0].total[key], ranks[0].total[key]
		for _, s := range ranks[1:] {
			lo, hi = min(lo, s.total[key]), max(hi, s.total[key])
		}
		xs = append(xs, hi-lo)
	}
	return median(xs)
}

func totalOf(key string) func(spanSums) float64 {
	return func(s spanSums) float64 { return s.total[key] }
}

func selfOf(key string) func(spanSums) float64 {
	return func(s spanSums) float64 { return s.self[key] }
}

// zeroPerLayer gives every per-layer metric its not-measured-here value, so
// that a workload prints the whole list whichever layers it runs.
func (r *run) zeroPerLayer() {
	for _, d := range perLayer {
		r.set(d.Name, 0)
	}
}

// writeTrace exports the tracer as the workload's Chrome trace and checks
// the file against the trace-event schema.
func (r *run) writeTrace(name string, tr *obs.Tracer) {
	if r.traceOut == "" {
		return
	}
	if err := os.MkdirAll(r.traceOut, 0o755); err != nil {
		r.fail("creating %s: %v", r.traceOut, err)
		return
	}
	path := filepath.Join(r.traceOut, name+".trace.json")
	tr.SetMeta("workload", name)
	tr.SetMeta("seed", fmt.Sprint(r.seed))
	if err := obs.WriteChromeTraceFile(path, tr); err != nil {
		r.fail("writing %s: %v", path, err)
		return
	}
	data, err := os.ReadFile(path)
	if err == nil {
		err = obs.ValidateChromeTrace(data)
	}
	r.check(err == nil, "Chrome trace %s: %v", path, err)
	r.logf("Chrome trace written to %s (open in Perfetto or chrome://tracing)", path)
}

// traceTrain is the traced pass of a training workload: a third of the time
// on untraced episodes (the reference for tracing overhead, the allocation
// counters, the traffic ledger and the checkpoint stall), the rest on the
// benchmark's own driver with spans on, then the isolated probes.
func (r *run) traceTrain(w workload) {
	r.zeroPerLayer()
	s := w.train.seeded(r.seed)
	dir, cleanup := r.tempDir()
	defer cleanup()

	mem := startMem()
	eps := r.trainEpisodes(s, dir, 1.0/3)
	if len(eps) == 0 {
		return
	}
	var plain, ckpts []float64
	var wall float64
	for _, ep := range eps {
		plain = append(plain, ep.stepMs...)
		ckpts = append(ckpts, ep.ckptMs...)
		wall += ep.wallS
	}
	mem.report(r, len(eps)*(s.warmup+s.steps))
	asc := sorted(plain)
	p50 := percentile(asc, 50)
	r.set("run.op_ms_p90", percentile(asc, 90))
	r.set("run.op_ms_tail", percentile(asc, tailPercentile(len(asc))))
	r.set("comm.tp.calls_per_step", eps[0].tp.calls)
	r.set("comm.tp.mb_per_step", eps[0].tp.mb)
	r.set("comm.dp.calls_per_step", eps[0].dp.calls)
	r.set("comm.dp.mb_per_step", eps[0].dp.mb)
	if len(ckpts) > 0 {
		r.set("ckpt.stall_ms", mean(ckpts)-p50)
		r.set("ckpt.mb_written", dirMB(dir))
	}
	r.checkTrain(s, eps[0], dir)

	total := s.warmup + s.steps
	var steps tracedSteps
	var tr *obs.Tracer
	for len(steps) == 0 || r.within(1) {
		tr = obs.NewTracer(s.world(), total*eventsPerStep)
		losses, err := s.tracedEpisode(r.seed, dir, tr, total)
		r.attempted += total
		if err != nil {
			r.failed += total
			r.fail("traced driver: %v", err)
			return
		}
		r.check(sameBits(losses, eps[0].loss), "traced driver's losses differ from the timed pass's: it is not running the same arithmetic")
		perRank := make([][]spanSums, s.world())
		for rank := range perRank {
			r.check(tr.Dropped(rank) == 0, "tracer row %d dropped %d events", rank, tr.Dropped(rank))
			perRank[rank] = stepBreakdown(tr.Events(rank))
			if len(perRank[rank]) != total {
				r.fail("rank %d traced %d steps, want %d", rank, len(perRank[rank]), total)
				return
			}
		}
		for st := s.warmup; st < total; st++ {
			ranks := make([]spanSums, s.world())
			for rank := range ranks {
				ranks[rank] = perRank[rank][st]
			}
			steps = append(steps, ranks)
		}
	}
	r.writeTrace(w.name, tr)

	r.set("run.ops", float64(len(steps)))
	tracedP50 := steps.med(func(s spanSums) float64 { return s.wall })
	r.set("trace.overhead_pct", (tracedP50/p50-1)*100)
	r.set("trace.unattributed_share", steps.med(func(s spanSums) float64 { return 1 - s.top/s.wall }))
	r.set("data.batch_wait_ms", steps.med(totalOf("data")))
	r.set("model.fwd_ms", steps.med(totalOf("fwd")))
	r.set("model.bwd_ms", steps.med(totalOf("bwd")))
	r.set("model.fwd_self_ms", steps.med(selfOf("fwd")))
	r.set("model.bwd_self_ms", steps.med(selfOf("bwd")))
	r.set("core.stage_fwd_ms", steps.med(totalOf("stage.fwd")))
	r.set("core.stage_bwd_ms", steps.med(totalOf("stage.bwd")))
	r.set("core.stage_fwd_self_ms", steps.med(selfOf("stage.fwd")))
	r.set("nn.blocks_fwd_ms", steps.med(totalOf("nn.blocks.fwd")))
	r.set("nn.blocks_bwd_ms", steps.med(totalOf("nn.blocks.bwd")))
	r.set("parallel.blocks_fwd_ms", steps.med(totalOf("parallel.blocks.fwd")))
	r.set("parallel.blocks_bwd_ms", steps.med(totalOf("parallel.blocks.bwd")))
	r.set("parallel.blocks_self_ms", steps.med(func(s spanSums) float64 {
		return s.self["parallel.blocks.fwd"] + s.self["parallel.blocks.bwd"]
	}))
	r.set("nn.loss_ms", steps.med(totalOf("loss")))
	r.set("comm.tp.ms_per_step", steps.med(totalOf("comm/tp")))
	r.set("comm.tp.skew_ms", steps.skew("comm/tp"))
	r.set("comm.dp.ms_per_step", steps.med(totalOf("comm/dp")))
	r.set("comm.dp.skew_ms", steps.skew("comm/dp"))
	r.set("parallel.dp_sync_ms", steps.med(totalOf("dp_sync")))
	r.set("optim.clip_ms", steps.med(totalOf("clip")))
	r.set("optim.step_ms", steps.med(totalOf("optim")))
	var writes tracedSteps
	for _, ranks := range steps {
		if ranks[0].calls["ckpt.write"] > 0 {
			writes = append(writes, ranks)
		}
	}
	if len(writes) > 0 {
		r.set("ckpt.shard_write_ms", writes.med(totalOf("ckpt.write")))
	}
	r.logf("untraced steps %d (p50 %.3f ms), traced steps %d (p50 %.3f ms)", len(plain), p50, len(steps), tracedP50)

	if !s.serial && s.dp == 1 {
		// The plain single-worker run of the same logical model is the base
		// of the speed-up channel sharding buys.
		base := *s
		base.serial = true
		procs := runtime.GOMAXPROCS(1)
		ep, err := base.timedEpisode(r.seed, dir)
		runtime.GOMAXPROCS(procs)
		r.attempted += total
		if err != nil {
			r.failed += total
			r.fail("serial baseline: %v", err)
			return
		}
		serialRate := float64(s.batch*len(ep.stepMs)) / ep.wallS
		r.set("dist.tp2_speedup", float64(s.batch*len(plain))/wall/serialRate)
	}
	r.probeStage(s)
	r.probeGemm()
}

// traceServe is the traced pass of a serving workload. Serving needs no
// driver: Response.{Queued,Total,BatchSize,Cached} and the metrics snapshot
// are the layer boundaries. One untraced episode gives the per-layer numbers:
// after phase sat it runs phase open, Poisson arrivals at a fixed rate below
// capacity with latency timed from each request's due time, and phase high,
// the knee probe. Further episodes with the engine's own tracing on give the
// cost of looking.
func (r *run) traceServe(w workload) {
	r.zeroPerLayer()
	s := w.serve.seeded(r.seed)
	mem := startMem()
	ep, ok := r.serveEpisode(s, s.cfg, true)
	if !ok {
		return
	}
	mem.report(r, s.episodeRequests())
	sat, open, high := ep.sat, ep.open, ep.high

	lat := sorted(sat.latencies())
	p50 := percentile(lat, 50)
	r.set("run.op_ms_p90", percentile(lat, 90))
	r.set("run.op_ms_tail", percentile(lat, tailPercentile(len(lat))))

	var queued, service, full, hits, misses, late []float64
	var hit, coalesced, refused, within int
	var engine, whole float64
	for _, o := range open.out {
		late = append(late, ms(o.late))
		if o.refused {
			refused++
		}
		if !o.answered() {
			continue
		}
		engine += ms(o.resp.Total)
		whole += ms(o.latency())
		if ms(o.latency()) <= s.limitMs {
			within++
		}
		switch {
		case o.resp.Cached && o.resp.BatchSize == 0:
			hit++
			hits = append(hits, ms(o.resp.Total))
		case o.resp.Cached:
			coalesced++
		default:
			queued = append(queued, ms(o.resp.Queued))
			service = append(service, ms(o.resp.Total-o.resp.Queued))
			misses = append(misses, ms(o.resp.Total))
		}
	}
	for _, p := range []phase{sat, open, high} {
		for _, o := range p.out {
			if o.answered() && !o.resp.Cached && o.resp.BatchSize == s.cfg.MaxBatch {
				full = append(full, ms(o.resp.Total-o.resp.Queued))
			}
		}
	}
	n := float64(len(open.out))
	olat := sorted(open.latencies())
	q := sorted(queued)
	r.set("serve.open_ms_p50", percentile(olat, 50))
	r.set("serve.open_ms_p90", percentile(olat, 90))
	r.set("serve.queue_ms_p50", percentile(q, 50))
	r.set("serve.queue_ms_p90", percentile(q, 90))
	if batches := ep.after.Batches - ep.before.Batches; batches > 0 {
		r.set("serve.batches", float64(batches))
		r.set("serve.mean_batch", (ep.after.MeanBatch*float64(ep.after.Batches)-ep.before.MeanBatch*float64(ep.before.Batches))/float64(batches))
	}
	r.set("serve.max_queue_depth", float64(ep.after.MaxQueueDepth))
	r.set("serve.rejected_share", float64(refused)/n)
	r.set("serve.service_ms_p50", median(service))
	r.set("serve.cache_hit_share", float64(hit)/n)
	r.set("serve.cache_coalesced_share", float64(coalesced)/n)
	r.set("serve.hit_ms_p50", median(hits))
	r.set("serve.miss_ms_p50", median(misses))
	r.set("serve.gen_late_ms_p90", percentile(sorted(late), 90))
	if span := open.out[len(open.out)-1].sent - open.out[0].sent; span > 0 {
		r.set("serve.open_rate_rps", (n-1)/span.Seconds())
	}
	r.set("serve.within_limit_share", float64(within)/n)
	if whole > 0 {
		// What the engine's own enqueue-to-response time does not cover of
		// the due-to-response latency: the generator's lateness.
		r.set("trace.unattributed_share", 1-engine/whole)
	}
	if s.hotSet == 0 {
		r.check(hit == 0, "distinct inputs produced %d cache hits", hit)
	}

	// The knee: latency at the high rate, and whether a backlog grows
	// there — the median latency of the phase's last third over that of its
	// first third.
	third := len(high.out) / 3
	r.set("serve.op_ms_p90_high", percentile(sorted(high.latencies()), 90))
	if early := median(phase{out: high.out[:third]}.latencies()); early > 0 {
		r.set("serve.backlog_growth", median(phase{out: high.out[len(high.out)-third:]}.latencies())/early)
	}

	if err := r.probeInfer(s); err != nil {
		r.fail("infer probe: %v", err)
	}
	if len(full) > 0 {
		r.set("serve.dispatch_ms_p50", median(full)-r.values["model.infer_ms_b8"])
	}
	r.probeGemm()

	// Traced episodes, with the engine's own spans on, for the rest of the
	// run's time: what looking costs, and the Chrome trace.
	cfg := s.cfg
	var tr *obs.Tracer
	var tlat []float64
	for len(tlat) == 0 || r.within(1) {
		tr = obs.NewTracer(cfg.Ranks*cfg.Replicas+1, (s.warmup+s.satN)*64)
		cfg.Trace = tr
		ep, ok := r.serveEpisode(s, cfg, false)
		if !ok {
			return
		}
		tlat = append(tlat, ep.sat.latencies()...)
	}
	r.writeTrace(w.name, tr)
	r.set("run.ops", float64(len(tlat)))
	r.set("trace.overhead_pct", (median(tlat)/p50-1)*100)
	r.logf("phase sat p50: untraced %.3f ms over %d, traced %.3f ms over %d; phase open %.0f req/s, phase high %.0f req/s",
		p50, len(lat), median(tlat), len(tlat), s.openRate, s.highRate)
}
