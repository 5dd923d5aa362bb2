package main

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// inputGen makes an episode's request inputs from the seed. Request i's
// input is a pure function of (seed, i): a hot-set member when the seeded
// pattern says so, otherwise a base image with an offset on one channel
// plane that no other request of the episode carries.
type inputGen struct {
	arch model.Arch
	base []*tensor.Tensor
	hot  []*tensor.Tensor
	pick []int // per request: hot-set index, or -1 for a distinct input
}

const inputBases = 32

func newInputGen(s *serveSpec, seed int64, requests int) *inputGen {
	a := s.arch
	rng := tensor.NewRNG(seed*15485863 + 5)
	g := &inputGen{arch: a, pick: make([]int, requests)}
	for i := 0; i < inputBases; i++ {
		g.base = append(g.base, tensor.Randn(rng, a.Channels, a.ImgH, a.ImgW))
	}
	for i := 0; i < s.hotSet; i++ {
		g.hot = append(g.hot, tensor.Randn(rng, a.Channels, a.ImgH, a.ImgW))
	}
	for i := range g.pick {
		g.pick[i] = -1
		if s.hotSet > 0 && rng.Float64() < s.hotShare {
			g.pick[i] = rng.Intn(s.hotSet)
		}
	}
	return g
}

func (g *inputGen) input(i int) *tensor.Tensor {
	if h := g.pick[i]; h >= 0 {
		return g.hot[h]
	}
	x := g.base[i%inputBases].Clone()
	plane := g.arch.ImgH * g.arch.ImgW
	ch := (i / inputBases) % g.arch.Channels
	off := 0.25 * float64(i/inputBases+1)
	for j := ch * plane; j < (ch+1)*plane; j++ {
		x.Data[j] += off
	}
	return x
}

// poisson returns n cumulative due offsets with exponential gaps of mean
// 1/rate seconds.
func poisson(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// pacer walks an open-loop schedule against a clock. The clock is a
// parameter so that a test can stall the sender.
type pacer struct {
	now   func() time.Duration
	sleep func(time.Duration)
}

// wait blocks until the due offset and returns how late the sender then is.
// A sender that stalled finds later requests already due: they go out at
// once and carry the stall as lateness, which the due-time latency charges
// to them.
func (p pacer) wait(due time.Duration) (late time.Duration) {
	if d := due - p.now(); d > 0 {
		p.sleep(d)
	}
	return max(0, p.now()-due)
}

// outcome is what became of one request.
type outcome struct {
	idx     int
	sent    time.Duration // offset of the submit from the phase's start
	late    time.Duration // open loop: submit time minus due time
	refused bool          // ErrQueueFull at admission; not retried
	err     error
	resp    serve.Response
}

// latency is the due-to-response time: the generator's lateness plus the
// engine's own enqueue-to-response measurement.
func (o outcome) latency() time.Duration { return o.late + o.resp.Total }

func (o outcome) answered() bool { return !o.refused && o.err == nil && o.resp.Err == nil }

// phase is the outcomes of one load phase and its wall time.
type phase struct {
	out  []outcome
	wall time.Duration
}

// drive submits requests first..first+n-1 from one submitter goroutine,
// asynchronously, while one collector goroutine gathers the answers. With
// due == nil it is a closed loop keeping window requests outstanding;
// otherwise an open loop sending request k at offset due[k] whatever the
// engine does. The heap is sampled at every 100th request.
func drive(eng *serve.Engine, gen *inputGen, heap *heapPeak, first, n, window int, due []time.Duration) phase {
	out := make([]outcome, n)
	chans := make([]<-chan serve.Response, n)
	pending := make(chan int, n) // one slot per send: the submitter never waits for the collector
	var slots chan struct{}
	if due == nil {
		slots = make(chan struct{}, window) // semaphore: requests outstanding
	}
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for k := range pending {
			if chans[k] != nil {
				select {
				case out[k].resp = <-chans[k]:
				case <-eng.Done():
					out[k].err = serve.ErrClosed
				}
			}
			if slots != nil {
				<-slots
			}
		}
	}()
	start := time.Now()
	pace := pacer{now: func() time.Duration { return time.Since(start) }, sleep: preciseSleep}
	for k := 0; k < n; k++ {
		if k%100 == 0 {
			heap.sample()
		}
		o := &out[k]
		o.idx = first + k
		req := &serve.Request{ID: strconv.Itoa(o.idx), Input: gen.input(o.idx)}
		if slots != nil {
			slots <- struct{}{}
		} else {
			o.late = pace.wait(due[k])
		}
		o.sent = pace.now()
		ch, err := eng.Submit(req)
		switch {
		case errors.Is(err, serve.ErrQueueFull):
			o.refused = true
		case err != nil:
			o.err = err
		default:
			chans[k] = ch
		}
		pending <- k
	}
	close(pending)
	<-collected
	return phase{out: out, wall: time.Since(start)}
}

// checker verifies served outputs after the phases end, so that checking
// costs the engine nothing while it is measured.
type checker struct {
	spec *serveSpec
	gen  *inputGen
	ref  *model.FoundationModel // serial f64 equivalent built from the same Source
	hot  map[int]*tensor.Tensor // first answer per hot-set input
}

func newChecker(s *serveSpec, gen *inputGen) (*checker, error) {
	ref, err := serve.FromArch(s.arch).Build(comm.NewGroup(1).Comm(0))
	if err != nil {
		return nil, err
	}
	return &checker{spec: s, gen: gen, ref: ref, hot: map[int]*tensor.Tensor{}}, nil
}

// verify checks one answered request and reports whether it passed: the
// echoed ID and output shape always; every checkEvery-th output against a
// direct Infer on the reference model; and every repeat of a hot-set input
// against that input's first answer, bit for bit.
func (c *checker) verify(o outcome) bool {
	a := c.spec.arch
	out := o.resp.Output
	if o.resp.ID != strconv.Itoa(o.idx) || out == nil || len(out.Shape) != 3 ||
		out.Shape[0] != a.Channels || out.Shape[1] != a.ImgH || out.Shape[2] != a.ImgW {
		return false
	}
	if h := c.gen.pick[o.idx]; h >= 0 {
		first, seen := c.hot[h]
		if !seen {
			c.hot[h] = out
		} else if first != out && !sameBits(first.Data, out.Data) {
			return false
		}
	}
	if o.idx%c.spec.checkEvery != 0 {
		return true
	}
	x := c.gen.input(o.idx)
	want := c.ref.PredictImage(x.Reshape(1, a.Channels, a.ImgH, a.ImgW))
	scale := math.Max(1, math.Max(want.Max(), -want.Min()))
	return tensor.MaxAbsDiff(want.Reshape(a.Channels, a.ImgH, a.ImgW), out) <= c.spec.outTol*scale
}

// seeded returns the spec with the run's seed applied to the model.
func (s *serveSpec) seeded(seed int64) *serveSpec {
	c := *s
	c.arch.Seed = seed*7919 + 11
	return &c
}

// episodeRequests is how many request indices an episode may use: warm-up,
// phase sat, phase open and the traced pass's high-rate phase.
func (s *serveSpec) episodeRequests() int { return s.warmup + s.satN + s.openN + s.highN }

// serveRun is a started engine with its input generator, as the phases of
// an episode share them.
type serveRun struct {
	eng  *serve.Engine
	gen  *inputGen
	heap heapPeak
	rng  *rand.Rand // arrival schedule
	next int        // next unused request index
}

// startServe generates the inputs, starts the engine and warms it up; the
// time it takes is the episode's set-up.
func startServe(s *serveSpec, seed int64, cfg serve.Config) (*serveRun, phase, float64, error) {
	t0 := time.Now()
	sr := &serveRun{gen: newInputGen(s, seed, s.episodeRequests()), rng: tensor.NewRNG(seed*32452843 + 7)}
	eng, err := serve.Start(cfg, serve.FromArch(s.arch))
	if err != nil {
		return nil, phase{}, 0, err
	}
	sr.eng = eng
	warm := sr.closed(s.warmup)
	return sr, warm, time.Since(t0).Seconds(), nil
}

func (sr *serveRun) closed(n int) phase {
	p := drive(sr.eng, sr.gen, &sr.heap, sr.next, n, serveWindow, nil)
	sr.next += n
	return p
}

func (sr *serveRun) openAt(n int, rate float64) phase {
	p := drive(sr.eng, sr.gen, &sr.heap, sr.next, n, 0, poisson(sr.rng, n, rate))
	sr.next += n
	return p
}

// served is one episode of a serving workload: the engine started and
// warmed up (set-up), then phase sat; the traced pass adds phase open
// between two metric snapshots and phase high, its knee probe.
type served struct {
	setupS          float64
	sat, open, high phase
	before, after   serve.Snapshot // around phase open
	peakHeap        uint64
}

// serveEpisode runs one episode on a fresh engine, closes it, and checks and
// counts every request. It reports false when the episode could not finish.
func (r *run) serveEpisode(s *serveSpec, cfg serve.Config, openLoops bool) (ep served, ok bool) {
	sr, warm, setup, err := startServe(s, r.seed, cfg)
	if err != nil {
		r.attempted += s.warmup
		r.failed += s.warmup
		r.fail("starting engine: %v", err)
		return ep, false
	}
	ep.setupS = setup
	ep.sat = sr.closed(s.satN)
	phases := []phase{warm, ep.sat}
	if openLoops {
		ep.before = sr.eng.Metrics().Snapshot()
		ep.open = sr.openAt(s.openN, s.openRate)
		ep.after = sr.eng.Metrics().Snapshot()
		ep.high = sr.openAt(s.highN, s.highRate)
		phases = append(phases, ep.open, ep.high)
	}
	sr.heap.sample()
	ep.peakHeap = sr.heap.max.Load()
	closeErr := sr.eng.Close()
	c, err := newChecker(s, sr.gen)
	if err != nil {
		r.fail("building the reference model: %v", err)
		return ep, false
	}
	for _, p := range phases {
		for _, o := range p.out {
			r.attempted++
			if !o.answered() || !c.verify(o) {
				r.failed++
			}
		}
	}
	r.check(closeErr == nil, "closing engine: %v", closeErr)
	return ep, closeErr == nil
}

// latencies returns the due-to-response times, in ms, of a phase's answered
// requests.
func (p phase) latencies() []float64 {
	var xs []float64
	for _, o := range p.out {
		if o.answered() {
			xs = append(xs, ms(o.latency()))
		}
	}
	return xs
}

func (p phase) answered() int {
	n := 0
	for _, o := range p.out {
		if o.answered() {
			n++
		}
	}
	return n
}

// runServe is the untraced pass of a serving workload: episodes of set-up
// and phase sat until the run's time is used, with a burst of the host's
// reference arithmetic before and after each. Both gated numbers come from
// the saturated phase: on the reference host a phase that leaves the
// processors idle between requests measures how long the host takes to wake
// them, which changes by a third with the host's mood (README.md, "Noise");
// the open-loop phases are part of the traced pass and not gated.
func (r *run) runServe(spec *serveSpec) {
	s := spec.seeded(r.seed)
	var st episodeStats
	before := r.burst()
	for len(st.host) == 0 || r.within(1) {
		ep, ok := r.serveEpisode(s, s.cfg, false)
		if !ok {
			return
		}
		after := r.burst()
		st.add(hostSpeed(before, after), ep.setupS, ep.sat.wall.Seconds(), ep.sat.answered(), ep.sat.latencies(), ep.peakHeap)
		before = after
	}
	st.report(r)
	r.logf("phase sat: closed loop, %d requests outstanding, %d requests per episode", serveWindow, s.satN)
}
