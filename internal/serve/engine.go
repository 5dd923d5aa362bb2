package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// job is one queued request together with its response slot.
type job struct {
	req  *Request
	enq  time.Time
	done chan Response // buffered 1: the responder never blocks
	// key is the request's cache fingerprint when the cache is enabled
	// (keyed); the job owns an in-flight cache entry that a completion
	// fills and a failure aborts.
	key   fingerprint
	keyed bool
}

// batchJob is one assembled micro-batch headed for a replica, tagged with
// the engine it answers to and the model instance it must run on.
type batchJob struct {
	e      *Engine
	inst   *instance
	jobs   []*job
	x      *tensor.Tensor // [B, C, H, W] on the model grid
	formed time.Time
	// answered counts the leading jobs complete has already answered, so a
	// batch failed part-way through its answers sends none of them twice.
	answered int
}

// fail answers every job in the batch that has no response yet with
// ErrClosed and releases the batch's resources (teardown and failure
// paths).
func (bj *batchJob) fail() {
	bj.e.failJobs(bj.jobs[bj.answered:])
	bj.release()
}

// release returns the pooled batch tensor and retires the batch from its
// instance's in-flight count. Called exactly once per dispatched batch.
func (bj *batchJob) release() {
	if bj.x != nil {
		tensor.DefaultPool.PutTensor(bj.x)
		bj.x = nil
	}
	bj.inst.wg.Done()
}

// Engine is one served model behind a bounded queue, a dynamic
// micro-batcher, and (optionally) a content-addressable response cache. The
// compute lives in the engine's own host, one mesh of rank goroutines. Stop
// an engine with Close; hot-swap its model with Swap.
type Engine struct {
	cfg     Config
	arch    model.Arch // request geometry; invariant across swaps
	host    *host
	metrics *Metrics
	cache   *cache    // nil when Config.CacheBytes == 0
	row     *obs.Rank // front-end lifecycle row (host tracer's last); nil when tracing off

	queue       chan *job
	quit        chan struct{} // closed by Close: stop admission, wind down
	batcherDone chan struct{} // closed when batchLoop has exited
	dead        chan struct{} // closed when the engine has fully stopped

	closeOnce sync.Once
	runErr    error // written before dead closes

	// instMu orders request routing against hot swap: the batcher acquires
	// the current instance (and bumps its in-flight count) under the read
	// lock, Swap replaces the pointer under the write lock, so after Swap
	// returns the lock no new batch can target the old instance.
	instMu sync.RWMutex
	inst   *instance // guarded by instMu

	// swapMu serializes Swap calls against each other.
	swapMu sync.Mutex
}

// Start builds the engine's host (TP=cfg.Ranks per replica,
// DP=cfg.Replicas), loads the model onto every rank — for checkpoint
// sources, restores it — and begins serving. It returns only after the
// model is loaded, so a checkpoint/topology mismatch surfaces here rather
// than on the first request. Close tears down the engine and its host.
func Start(cfg Config, src Source) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h, err := newHost(cfg.Ranks, cfg.Replicas, cfg.Trace)
	if err != nil {
		return nil, err
	}
	inst, err := h.load(src, cfg.DType)
	if err != nil {
		return nil, err
	}
	cfg.Trace.SetRowName(cfg.Trace.Rows()-1, "engine")
	e := &Engine{
		cfg:         cfg,
		arch:        inst.arch,
		host:        h,
		metrics:     NewMetrics(),
		row:         h.trace.Rank(h.trace.Rows() - 1),
		queue:       make(chan *job, cfg.QueueDepth),
		quit:        make(chan struct{}),
		batcherDone: make(chan struct{}),
		dead:        make(chan struct{}),
		inst:        inst,
	}
	if cfg.CacheBytes > 0 {
		e.cache = newCache(cfg.CacheBytes)
	}
	go e.batchLoop()
	h.start(e.batcherDone)
	go e.supervise()
	return e, nil
}

// Arch returns the served architecture (request geometry: Channels x ImgH x
// ImgW). It is invariant across hot swaps — Swap enforces it.
func (e *Engine) Arch() model.Arch { return e.arch }

// Metrics returns the engine's metrics aggregator.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Done is closed when the engine has fully stopped (Close finished or the
// host failed); Err then reports why.
func (e *Engine) Done() <-chan struct{} { return e.dead }

// Err returns the terminal error once Done is closed (nil for a clean
// Close), nil while the engine is running.
func (e *Engine) Err() error {
	select {
	case <-e.dead:
		return e.runErr
	default:
		return nil
	}
}

// Close stops admission, fails requests still waiting in the queue, lets
// in-flight batches finish, and tears down the host. It is idempotent and
// returns the engine's terminal error.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() { close(e.quit) })
	<-e.dead
	return e.runErr
}

// supervise is the engine's teardown path: it waits for a close or a host
// failure, retires the batcher and queue, drains the current instance, and
// closes the host, whose terminal error is the engine's.
func (e *Engine) supervise() {
	select {
	case <-e.quit:
	case <-e.host.failed:
	}
	// The batcher exits on the same signals; after it no new batch can be
	// assembled, so the queue drain below is final.
	<-e.batcherDone
	e.drainQueue()
	// Dispatched batches finish normally (clean close: workers still
	// serving) or are failed by the worker/host teardown (host end); either
	// way each calls release exactly once and the in-flight count drains.
	e.instMu.RLock()
	inst := e.inst
	e.instMu.RUnlock()
	inst.wg.Wait()
	e.runErr = e.host.close()
	close(e.dead)
}

// closedForSubmit reports whether admission is shut.
func (e *Engine) closedForSubmit() bool {
	select {
	case <-e.quit:
		return true
	case <-e.dead:
		return true
	case <-e.host.failed:
		return true
	default:
		return false
	}
}

// Submit validates and enqueues a request, returning the channel its
// Response will arrive on. It never blocks: a full queue is an ErrQueueFull
// rejection (admission control), a closed engine an ErrClosed. With the
// cache enabled, a content hit answers immediately without queuing
// (Response.Cached) and identical in-flight requests coalesce onto one
// forward. Callers waiting on the returned channel should also select on
// Done in case the engine stops first; Do wraps exactly that.
func (e *Engine) Submit(req *Request) (<-chan Response, error) {
	if err := e.validateRequest(req); err != nil {
		return nil, err
	}
	if e.closedForSubmit() {
		return nil, ErrClosed
	}
	enq := time.Now()
	var key fingerprint
	keyed := false
	if e.cache != nil {
		e.instMu.RLock()
		instID := e.inst.id
		e.instMu.RUnlock()
		key = fingerprintOf(instID, e.cfg.DType, req)
		keyed = true
		if out := e.cache.get(key); out != nil {
			e.metrics.noteHit(time.Since(enq))
			e.row.Instant("cache-hit", "serve")
			ch := make(chan Response, 1)
			ch <- Response{ID: req.ID, Output: out, Cached: true, Total: time.Since(enq)}
			return ch, nil
		}
		if hit, ch := e.cache.joinOrOwn(key, req.ID, enq); hit != nil {
			e.metrics.noteHit(time.Since(enq))
			e.row.Instant("cache-hit", "serve")
			rch := make(chan Response, 1)
			rch <- Response{ID: req.ID, Output: hit, Cached: true, Total: time.Since(enq)}
			return rch, nil
		} else if ch != nil {
			e.metrics.noteCoalesced()
			e.row.Instant("coalesce", "serve")
			return ch, nil
		}
		e.metrics.noteMiss()
	}
	j := &job{req: req, enq: enq, done: make(chan Response, 1), key: key, keyed: keyed}
	select {
	case e.queue <- j:
		e.row.Instant("enqueue", "serve")
		// Close may have raced in between the admission check and the
		// enqueue — after the batcher's final drain, nothing would ever
		// serve or fail this job. Re-check and rescue: draining here fails
		// every stranded job (ours included) with ErrClosed.
		if e.closedForSubmit() {
			e.drainQueue()
		}
		e.metrics.noteDepth(len(e.queue))
		return j.done, nil
	default:
		if keyed {
			e.failFlight(key, ErrQueueFull)
		}
		e.metrics.noteRejected()
		e.row.Instant("reject", "serve")
		return nil, ErrQueueFull
	}
}

// failFlight abandons a job's in-flight cache entry and fails any requests
// that coalesced onto it with the same error, so they retry like the owner.
func (e *Engine) failFlight(key fingerprint, err error) {
	for _, w := range e.cache.abort(key) {
		w.ch <- Response{ID: w.id, Err: err}
	}
}

// Do submits a request and waits for its response, the context, or engine
// shutdown — whichever comes first.
func (e *Engine) Do(ctx context.Context, req *Request) (Response, error) {
	ch, err := e.Submit(req)
	if err != nil {
		return Response{}, err
	}
	result := func(r Response) (Response, error) { return r, r.Err }
	select {
	case r := <-ch:
		return result(r)
	case <-ctx.Done():
		return Response{}, ctx.Err()
	case <-e.dead:
		// The response may have raced the shutdown in.
		select {
		case r := <-ch:
			return result(r)
		default:
		}
		if e.runErr != nil {
			return Response{}, e.runErr
		}
		return Response{}, ErrClosed
	}
}

// validateRequest checks a request against the served architecture before
// it is admitted, so batch assembly can never fail.
func (e *Engine) validateRequest(req *Request) error {
	a := e.arch
	if req == nil || req.Input == nil {
		return fmt.Errorf("serve: request has no input")
	}
	if len(req.Input.Shape) != 3 || req.Input.Shape[1] < 1 || req.Input.Shape[2] < 1 {
		return fmt.Errorf("serve: input must be [c,h,w], got %v", req.Input.Shape)
	}
	c := req.Input.Shape[0]
	want, ok := elemCount(req.Input.Shape)
	if !ok {
		return fmt.Errorf("serve: input shape %v has a negative extent or more elements than an int counts", req.Input.Shape)
	}
	if len(req.Input.Data) != want {
		return fmt.Errorf("serve: input holds %d values, shape %v wants %d", len(req.Input.Data), req.Input.Shape, want)
	}
	if req.Channels == nil {
		if c != a.Channels {
			return fmt.Errorf("serve: input has %d channels, model wants %d (name a subset via Channels)", c, a.Channels)
		}
		return nil
	}
	if len(req.Channels) != c {
		return fmt.Errorf("serve: Channels lists %d entries for %d input rows", len(req.Channels), c)
	}
	prev := -1
	for _, ch := range req.Channels {
		if ch <= prev || ch >= a.Channels {
			return fmt.Errorf("serve: channel indices must be strictly increasing in [0,%d), got %v", a.Channels, req.Channels)
		}
		prev = ch
	}
	return nil
}

// elemCount returns the number of elements of a shape, or false when an
// extent is negative or the product does not fit an int. A wrapped product
// can equal the length of a short (even empty) value list, so both places
// that hold a client's shape against its values count through here.
func elemCount(shape []int) (n int, ok bool) {
	n = 1
	for _, d := range shape {
		if d < 0 || (d > 0 && n > math.MaxInt/d) {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// batchLoop is the dynamic micro-batcher: it blocks for the first request,
// then accumulates until the batch is full or the oldest request has waited
// MaxWait, then hands the assembled batch to the host's replicas.
func (e *Engine) batchLoop() {
	defer close(e.batcherDone)
	for {
		var first *job
		select {
		case first = <-e.queue:
		case <-e.quit:
			e.drainQueue()
			return
		case <-e.host.failed:
			e.drainQueue()
			return
		}
		sp := e.row.Begin("batch-collect", "serve")
		batch := e.collect(first)
		sp.End()
		select {
		case <-e.quit:
			e.failJobs(batch)
			e.drainQueue()
			return
		case <-e.host.failed:
			e.failJobs(batch)
			e.drainQueue()
			return
		default:
		}
		asm := e.row.Begin("batch-assemble", "serve")
		bj := e.assemble(batch)
		asm.End()
		dsp := e.row.Begin("dispatch-wait", "serve")
		select {
		case e.host.work <- bj:
			dsp.End()
		case <-e.host.failed:
			dsp.End()
			bj.fail()
			e.drainQueue()
			return
		}
	}
}

// collect accumulates up to MaxBatch jobs behind first. A full batch
// flushes immediately; a partial batch flushes early the moment the queue
// is empty while dispatch capacity is free (waiting for stragglers would
// idle a replica — the batcher must never trade capacity for batch size),
// and otherwise at the MaxWait deadline, which bounds the extra wait a
// request can absorb when every replica is busy anyway.
func (e *Engine) collect(first *job) []*job {
	batch := []*job{first}
	if e.cfg.MaxBatch == 1 {
		return batch
	}
	// The deadline is counted from the oldest request's enqueue, not from
	// dequeue: time the request already spent queued behind busy replicas
	// counts against its batching wait.
	timer := time.NewTimer(time.Until(first.enq.Add(e.cfg.MaxWait)))
	defer timer.Stop()
	for len(batch) < e.cfg.MaxBatch {
		select {
		case j := <-e.queue:
			batch = append(batch, j)
			continue
		default:
		}
		// Queue momentarily empty: flush now if a dispatch slot is free.
		if len(e.host.work) < cap(e.host.work) {
			return batch
		}
		select {
		case j := <-e.queue:
			batch = append(batch, j)
		case <-timer.C:
			return batch
		case <-e.quit:
			return batch
		case <-e.host.failed:
			return batch
		}
	}
	return batch
}

// assemble builds the [B, C, H, W] batch tensor: every input regridded to
// the model grid and scattered onto its channel rows (partial channel sets
// leave the others zero — the normalized-data mean). The tensor comes from
// the process-wide pool and is returned to it by complete (or by the
// teardown drain), so steady-state batch assembly allocates nothing beyond
// the batch descriptor. The batch acquires the engine's current instance
// under the routing read lock — the swap ordering hinges on the Add
// happening before the lock is released.
//
// dchag:hotpath — the serve dispatch loop runs this once per micro-batch.
func (e *Engine) assemble(jobs []*job) *batchJob {
	e.instMu.RLock()
	inst := e.inst
	inst.wg.Add(1)
	e.instMu.RUnlock()
	a := e.arch
	hw := a.ImgH * a.ImgW
	x := tensor.DefaultPool.GetTensor(len(jobs), a.Channels, a.ImgH, a.ImgW)
	x.Zero() // pooled buffers come back dirty; unlisted channels must read 0
	for i, j := range jobs {
		in := j.req.Input
		if in.Shape[1] != a.ImgH || in.Shape[2] != a.ImgW {
			in = data.RegridBatch(in, a.ImgH, a.ImgW)
		}
		for r := 0; r < in.Shape[0]; r++ {
			ch := r
			if j.req.Channels != nil {
				ch = j.req.Channels[r]
			}
			copy(x.Data[(i*a.Channels+ch)*hw:(i*a.Channels+ch+1)*hw], in.Data[r*hw:(r+1)*hw])
		}
	}
	return &batchJob{e: e, inst: inst, jobs: jobs, x: x, formed: time.Now()}
}

// drainQueue fails every job still waiting in the queue (teardown path).
func (e *Engine) drainQueue() {
	for {
		select {
		case j := <-e.queue:
			e.failJob(j)
		default:
			return
		}
	}
}

func (e *Engine) failJobs(jobs []*job) {
	for _, j := range jobs {
		e.failJob(j)
	}
}

func (e *Engine) failJob(j *job) {
	e.metrics.noteFailed()
	if j.keyed {
		e.failFlight(j.key, ErrClosed)
	}
	j.done <- Response{ID: j.req.ID, Err: ErrClosed}
}

// complete unpatchifies a replica's prediction, fans the per-request
// responses back out, and — when the cache is on — fills each request's
// in-flight cache entry, answering every coalesced waiter with the shared
// output. Each request's rows of the prediction are unpatchified straight
// into that request's own [C, H, W] output, which the response and the cache
// own: one copy per value. It runs on the replica leader's responder, while
// the leader runs the next batch.
func (e *Engine) complete(bj *batchJob, pred *tensor.Tensor) {
	sp := e.row.Begin("respond", "serve")
	defer sp.End()
	a := e.arch
	tensor.DefaultPool.PutTensor(bj.x) // the batch tensor is consumed
	bj.x = nil
	now := time.Now()
	b := len(bj.jobs)
	e.metrics.noteBatch(b)
	per := len(pred.Data) / b // one request's [T, C*P*P] prediction rows
	for i, j := range bj.jobs {
		rows := tensor.FromSlice(pred.Data[i*per:(i+1)*per], 1, pred.Shape[1], pred.Shape[2])
		out := model.Unpatchify(rows, a.Channels, a.ImgH, a.ImgW, a.Patch).Reshape(a.Channels, a.ImgH, a.ImgW)
		resp := Response{
			ID:        j.req.ID,
			Output:    out,
			BatchSize: b,
			Queued:    bj.formed.Sub(j.enq),
			Total:     now.Sub(j.enq),
		}
		e.metrics.observe(resp)
		// Fill before answering the owner: whoever has seen this response
		// and repeats the request finds the entry, not a closing flight.
		if j.keyed {
			e.row.Instant("cache-fill", "serve")
			for _, w := range e.cache.fill(j.key, bj.inst.id, out) {
				w.ch <- Response{
					ID:        w.id,
					Output:    out,
					BatchSize: b,
					Cached:    true,
					Total:     now.Sub(w.enq),
				}
			}
		}
		j.done <- resp
		bj.answered++
	}
	bj.release()
}
