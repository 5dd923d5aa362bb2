package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/train"
)

// liveHeap reads the bytes the last garbage collection found live.
func liveHeap() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapPeak keeps the largest live heap seen; safe for concurrent use.
type heapPeak struct{ max atomic.Uint64 }

func (h *heapPeak) sample() {
	v := liveHeap()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// stepClock records when each step began: the first arrival of any rank in
// the batch function. Every rank calls the batch function concurrently, so
// a boundary is one compare-and-swap into a slice sized beforehand.
type stepClock struct {
	t0    time.Time
	first []atomic.Int64 // ns since t0, 0 while unset
	heap  heapPeak
}

func newStepClock(steps int) *stepClock {
	return &stepClock{t0: time.Now(), first: make([]atomic.Int64, steps)}
}

func (c *stepClock) arrive(step int) {
	if c.first[step].CompareAndSwap(0, int64(time.Since(c.t0))+1) {
		c.heap.sample()
	}
}

func (c *stepClock) at(step int) time.Duration { return time.Duration(c.first[step].Load()) }

// batches generates the workload's global batches from the seed: x is the
// input, y the regression target (the input itself for the MAE objective).
func (s *trainSpec) batches(seed int64) (xs, ys []*tensor.Tensor) {
	a := s.arch
	if s.weather {
		w := data.NewWeather(data.WeatherConfig{NativeH: a.ImgH, NativeW: 2 * a.ImgW, Steps: s.nBatches*s.batch + 2, DtHours: 6, Seed: seed})
		if w.Channels() < a.Channels {
			panic(fmt.Sprintf("weather generator has %d channels, model wants %d", w.Channels(), a.Channels))
		}
		for i := 0; i < s.nBatches; i++ {
			x, y := w.PairBatch(i*s.batch, s.batch, 1, a.ImgH, a.ImgW)
			xs = append(xs, tensor.SliceAxis(x, 1, 0, a.Channels))
			ys = append(ys, tensor.SliceAxis(y, 1, 0, a.Channels))
		}
		return xs, ys
	}
	g := data.NewHyperspectral(data.HyperspectralConfig{
		Images: s.nBatches * s.batch, Channels: a.Channels, ImgH: a.ImgH, ImgW: a.ImgW,
		Endmembers: 4, Noise: 0.01, Seed: seed,
	})
	for i := 0; i < s.nBatches; i++ {
		x := g.Batch(i*s.batch, s.batch)
		xs = append(xs, x)
		ys = append(ys, x)
	}
	return xs, ys
}

// seeded returns the spec with the run's seed applied to the model.
func (s *trainSpec) seeded(seed int64) *trainSpec {
	c := *s
	c.arch.Seed = seed*7919 + 11
	return &c
}

// maskSeed derives the mask stream's seed from the run's.
func maskSeed(seed int64) int64 { return seed*104729 + 3 }

func (s *trainSpec) options(seed int64, steps int, dir string) train.Options {
	o := train.Options{
		Steps: steps, Batch: s.batch, LR: trainLR, WeightDecay: trainWD,
		ClipNorm: trainClip, MaskRatio: s.mask, Seed: maskSeed(seed),
	}
	if s.ckptEvery > 0 {
		o.CheckpointDir, o.CheckpointEvery = dir, s.ckptEvery
	}
	return o
}

// ckptDue mirrors the training loops' checkpoint rule for 0-indexed step st
// of a run of total steps.
func (s *trainSpec) ckptDue(st, total int) bool {
	return s.ckptEvery > 0 && (st == total-1 || (st+1)%s.ckptEvery == 0)
}

func (s *trainSpec) world() int {
	if s.serial {
		return 1
	}
	return s.tp * s.dp
}

// axisTraffic is the per-rank, per-step collective count and volume on one
// mesh axis, read from the always-on traffic ledger.
type axisTraffic struct{ calls, mb float64 }

// trafficPhases are the phase labels the training loops file collectives
// under; the ledger has no phase-independent call count.
var trafficPhases = []string{"default", "forward", "backward", "dp-sync", "optim", "metrics", "ckpt"}

func ledger(ts []*comm.Traffic, ranks, steps int) axisTraffic {
	var calls int
	var bytes int64
	for _, t := range ts {
		for _, ph := range trafficPhases {
			calls += t.CallsInPhase(ph)
		}
		bytes += t.TotalBytes()
	}
	per := float64(ranks * steps)
	return axisTraffic{calls: float64(calls) / per, mb: float64(bytes) / 1e6 / per}
}

func axisLedgers(m *dist.Mesh, a dist.Axis) []*comm.Traffic {
	var ts []*comm.Traffic
	for g := 0; g < m.GroupCount(a); g++ {
		ts = append(ts, m.GroupTraffic(a, g))
	}
	return ts
}

// episode is one build-warm-up-measure cycle of a training workload with
// tracing off.
type episode struct {
	setupS   float64   // episode start to the first timed step
	stepMs   []float64 // wall time of each timed step
	ckptMs   []float64 // the subset of stepMs that wrote a checkpoint
	wallS    float64   // first timed step's start to the loop's return
	loss     []float64 // every step's loss, warm-up included
	peakHeap uint64
	tp, dp   axisTraffic
	bwdBytes int64   // TP-axis bytes filed under the backward phase
	host     float64 // hostSpeed during the episode
}

// timedEpisode runs one episode through the repository's own training loop.
// dir is the checkpoint directory, used only when the spec checkpoints.
func (s *trainSpec) timedEpisode(seed int64, dir string) (ep episode, err error) {
	total := s.warmup + s.steps
	clock := newStepClock(total)
	xs, ys := s.batches(seed)
	batch := func(step int) (x, y *tensor.Tensor) {
		clock.arrive(step)
		return xs[step%len(xs)], ys[step%len(ys)]
	}
	opts := s.options(seed, total, dir)
	var hist train.History
	switch {
	case s.serial:
		hist, err = train.SerialCheckpointed(model.NewSerialDCHAGEquivalent(s.arch, s.arch.Partitions), opts, batch)
	case s.dp == 1:
		var g *comm.Group
		hist, g, err = train.Distributed(s.arch, s.tp, s.tpViT, opts, batch)
		if err == nil {
			ep.tp = ledger([]*comm.Traffic{g.Traffic()}, s.tp, total)
			ep.bwdBytes = g.Traffic().BytesInPhase("backward")
		}
	default:
		var m *dist.Mesh
		hist, m, err = train.Hybrid(s.arch, s.tp, s.dp, s.tpViT, opts, batch)
		if err == nil {
			ep.tp = ledger(axisLedgers(m, dist.AxisTP), s.world(), total)
			ep.dp = ledger(axisLedgers(m, dist.AxisDP), s.world(), total)
			for _, t := range axisLedgers(m, dist.AxisTP) {
				ep.bwdBytes += t.BytesInPhase("backward")
			}
		}
	}
	end := time.Since(clock.t0)
	if err != nil {
		return ep, err
	}
	clock.heap.sample()
	ep.loss = hist.Loss
	ep.peakHeap = clock.heap.max.Load()
	ep.setupS = clock.at(s.warmup).Seconds()
	ep.wallS = (end - clock.at(s.warmup)).Seconds()
	for st := s.warmup; st < total; st++ {
		next := end
		if st+1 < total {
			next = clock.at(st + 1)
		}
		d := ms(next - clock.at(st))
		ep.stepMs = append(ep.stepMs, d)
		if s.ckptDue(st, total) {
			ep.ckptMs = append(ep.ckptMs, d)
		}
	}
	return ep, nil
}

// serialLosses trains the plain serial equivalent of the spec's logical
// model for the given number of steps on the same batches and mask stream:
// the oracle a distributed trajectory is compared with.
func (s *trainSpec) serialLosses(seed int64, steps int) ([]float64, error) {
	xs, ys := s.batches(seed)
	batch := func(step int) (x, y *tensor.Tensor) { return xs[step%len(xs)], ys[step%len(ys)] }
	plain := *s
	plain.ckptEvery = 0
	hist, err := train.SerialCheckpointed(model.NewSerialDCHAGEquivalent(s.arch, s.arch.Partitions), plain.options(seed, steps, ""), batch)
	return hist.Loss, err
}

// finite counts the steps of an episode that produced a usable loss.
func finite(loss []float64) int {
	n := 0
	for _, l := range loss {
		if !math.IsNaN(l) && !math.IsInf(l, 0) {
			n++
		}
	}
	return n
}

// sameBits reports whether two loss trajectories are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runTrain is the untraced pass of a training workload: episodes until the
// run's time is used, the end-to-end metrics from them, then the output
// checks.
func (r *run) runTrain(spec *trainSpec) {
	s := spec.seeded(r.seed)
	dir, cleanup := r.tempDir()
	defer cleanup()
	eps := r.trainEpisodes(s, dir, 1)
	if len(eps) == 0 {
		return
	}
	var st episodeStats
	var ckpts []float64
	for _, ep := range eps {
		st.add(ep.host, ep.setupS, ep.wallS, s.batch*len(ep.stepMs), ep.stepMs, ep.peakHeap)
		ckpts = append(ckpts, ep.ckptMs...)
	}
	st.report(r)
	if len(ckpts) > 0 {
		r.logf("checkpoint steps %d, mean %.3f ms as measured", len(ckpts), mean(ckpts))
	}
	r.checkTrain(s, eps[0], dir)
}

// episodeStats collects what each untraced episode of a run measured and
// turns it into the end-to-end metrics. Every time is corrected for the
// host's speed during its episode (host.go), so the metrics read what the
// undisturbed reference host would have shown: set-up time is the median
// over episodes, throughput all samples over all timed wall time, the
// operation time the median over every timed operation. The heap is not a
// time: it is the run's peak as measured, the largest over the episodes
// (one episode's peak depends on where the collector's cycles fall and takes
// one of two values a tenth apart; the largest of several does not).
type episodeStats struct {
	host, setupS, wallS, heapMB []float64
	samples                     int
	ops                         [][]float64 // per episode: its timed operations, ms as measured
}

// add records one episode: the host's speed during it, its set-up time, the
// wall time of its timed phase, the samples that phase completed, the times
// of its timed operations and its peak live heap.
func (e *episodeStats) add(host, setupS, wallS float64, samples int, opMs []float64, heap uint64) {
	e.host = append(e.host, host)
	e.setupS = append(e.setupS, setupS)
	e.wallS = append(e.wallS, wallS)
	e.heapMB = append(e.heapMB, float64(heap)/1e6)
	e.samples += samples
	e.ops = append(e.ops, opMs)
}

func (e *episodeStats) report(r *run) {
	var setup, ops, raw []float64
	var wall, rawWall float64
	for i, speed := range e.host {
		r.logf("episode %d: host speed %.3f; as measured: set-up %.3f s, timed %.3f s, op p50 %.3f ms, peak live heap %.1f MB",
			i, speed, e.setupS[i], e.wallS[i], median(e.ops[i]), e.heapMB[i])
		h := undisturbed(speed)
		setup = append(setup, e.setupS[i]*h)
		wall += e.wallS[i] * h
		rawWall += e.wallS[i]
		for _, op := range e.ops[i] {
			ops = append(ops, op*h)
		}
		raw = append(raw, e.ops[i]...)
	}
	r.set("setup_s", median(setup))
	r.set("samples_per_s", float64(e.samples)/wall)
	r.set("op_ms_p50", median(ops))
	r.set("peak_live_heap_mb", slices.Max(e.heapMB))
	asc := sorted(raw)
	r.logf("episodes %d, timed operations %d; as measured: %.2f samples/s, op p50 %.3f ms, p90 %.3f ms; mean host speed %.3f",
		len(e.host), len(asc), float64(e.samples)/rawWall, percentile(asc, 50), percentile(asc, 90), mean(e.host))
	if p := tailPercentile(len(asc)); p > 0 {
		r.logf("op_ms tail as measured: p%g = %.3f ms (highest percentile with ten samples beyond it)", p, percentile(asc, p))
	}
}

// trainEpisodes runs timed episodes until the given share of the run's time
// is used, with a burst of the host's reference arithmetic before and after
// each, counting attempted and failed steps and checking that every episode
// repeats the first one's trajectory bit for bit.
func (r *run) trainEpisodes(s *trainSpec, dir string, share float64) []episode {
	var eps []episode
	before := r.burst()
	for len(eps) == 0 || r.within(share) {
		ep, err := s.timedEpisode(r.seed, dir)
		after := r.burst()
		ep.host, before = hostSpeed(before, after), after
		r.attempted += s.warmup + s.steps
		if err != nil {
			r.failed += s.warmup + s.steps
			r.fail("episode %d: %v", len(eps), err)
			return eps
		}
		r.failed += len(ep.loss) - finite(ep.loss)
		if len(eps) > 0 {
			r.check(sameBits(ep.loss, eps[0].loss), "episode %d does not repeat episode 0's losses bit for bit", len(eps))
		}
		eps = append(eps, ep)
	}
	return eps
}

// checkTrain runs the training output checks that need more than the timed
// episodes themselves.
func (r *run) checkTrain(s *trainSpec, ep episode, dir string) {
	r.check(len(ep.loss) == s.warmup+s.steps, "ran %d steps, want %d", len(ep.loss), s.warmup+s.steps)
	if !s.serial && !s.tpViT {
		// Pure D-CHAG (paper Sec. 3.3): the forward AllGather is the only
		// collective. TP transformer blocks do communicate backward.
		r.check(ep.bwdBytes == 0, "TP axis moved %d bytes in the backward phase, want 0", ep.bwdBytes)
	}
	if s.oracle > 0 {
		want, err := s.serialLosses(r.seed, s.oracle)
		if err != nil {
			r.fail("serial oracle: %v", err)
		}
		worst := 0.0
		for i := 0; i < len(want) && i < len(ep.loss); i++ {
			worst = math.Max(worst, math.Abs(want[i]-ep.loss[i])/math.Max(1, math.Abs(want[i])))
		}
		r.check(len(want) == s.oracle && worst <= s.lossTol,
			"first %d losses differ from the serial oracle by %.3g, tolerance %.3g", s.oracle, worst, s.lossTol)
		r.logf("serial oracle: first %d losses agree within %.3g", s.oracle, worst)
	}
	if s.ckptEvery > 0 {
		ck, err := ckpt.OpenLatest(dir)
		if err != nil {
			r.fail("committed checkpoint does not open: %v", err)
		} else {
			r.check(ck.Manifest.Step == s.warmup+s.steps, "checkpoint is at step %d, want %d", ck.Manifest.Step, s.warmup+s.steps)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// dirMB sums the sizes of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		return 0
	}
	return float64(total) / 1e6
}
