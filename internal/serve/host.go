package serve

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// instance is one loaded model served over the host's mesh: a
// world-rank-indexed set of model slices plus each rank's channel bounds.
// Instances are immutable after load; the WaitGroup tracks micro-batches
// dispatched against the instance so a hot swap can drain it exactly.
type instance struct {
	id    int64
	arch  model.Arch
	dtype tensor.DType
	// models, lo, hi are world-rank indexed and read-only after load.
	models []*model.FoundationModel
	lo, hi []int
	// wg counts dispatched-but-unanswered micro-batches: Add happens under
	// the owning engine's instMu read lock at assembly, Done exactly once
	// per batch on its complete-or-fail path, so Wait after the routing
	// swap observes a fully drained instance.
	wg sync.WaitGroup
}

// host owns one engine's dist.Mesh (TP=ranks per replica, DP=replicas) and
// its rank goroutines. Micro-batches arrive on the work channel tagged with
// their model instance, and the replica leader broadcasts the instance id
// alongside the batch so every rank of the TP group serves the same model:
// during a hot swap, batches for the old and the new instance interleave on
// the followers.
type host struct {
	ranks    int
	replicas int
	mesh     *dist.Mesh  // read-only after newHost
	trace    *obs.Tracer // nil when tracing is off; read-only after newHost

	work   chan *batchJob // the engine's batcher is the only sender
	quit   chan struct{}  // closed by close: leaders say farewell and exit
	failed chan struct{}  // closed on the first worker failure
	dead   chan struct{}  // closed when every rank goroutine has exited

	failOnce sync.Once
	runErr   error // written before dead closes

	mu        sync.RWMutex
	instances map[int64]*instance // guarded by mu
	nextID    int64               // guarded by mu
}

// newHost builds the mesh; start runs its rank goroutines. The world is
// ranks*replicas; each replica is one TP group whose leader pulls from the
// work channel. dist.NewMesh starts no goroutine, so a host that is never
// started needs no teardown.
//
// When tr is non-nil every mesh communicator gets a comm observer recording
// collective spans onto the world rank's tracer row, and the workers record
// per-batch forward spans on the same rows. The engine records the
// front-end lifecycle on the tracer's last row (see Config.Trace), so the
// tracer needs at least ranks*replicas + 1 rows.
func newHost(ranks, replicas int, tr *obs.Tracer) (*host, error) {
	if need := ranks*replicas + 1; tr != nil && tr.Rows() < need {
		return nil, fmt.Errorf("serve: tracer has %d rows, a %d x %d host needs %d (one per rank plus the front-end row)",
			tr.Rows(), ranks, replicas, need)
	}
	spec := dist.MeshSpec{TP: ranks, FSDP: 1, DP: replicas}
	topo := dist.Topology{Nodes: 1, GPUsPerNode: spec.World()}
	if spec.World() > 8 && spec.World()%8 == 0 {
		topo = dist.Frontier(spec.World() / 8)
	}
	mesh, err := dist.NewMesh(spec, topo)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		mesh.SetObserver(func(a dist.Axis, rank int) comm.Observer {
			return obs.NewCommObserver(tr.Rank(rank), obs.CommCat(a.String()))
		})
	}
	return &host{
		ranks:     ranks,
		replicas:  replicas,
		mesh:      mesh,
		trace:     tr,
		work:      make(chan *batchJob, replicas),
		quit:      make(chan struct{}),
		failed:    make(chan struct{}),
		dead:      make(chan struct{}),
		instances: make(map[int64]*instance),
	}, nil
}

// start runs the rank goroutines. batcherDone closes when the engine's
// batcher, the work channel's only sender, has exited; the batcher exists
// before start is called.
func (h *host) start(batcherDone <-chan struct{}) {
	go func() {
		err := h.mesh.Run(h.worker)
		// Every rank has exited. Wait for the batcher (it exits on the
		// failed signal), then fail any micro-batches stranded in the work
		// buffer: with both sides gone this drain has no concurrent sender
		// or receiver. On a clean close the batcher exited first and the
		// workers drained the channel, so this finds nothing.
		h.fail()
		<-batcherDone
		for {
			bj, ok := h.takeWork()
			if !ok {
				break
			}
			bj.fail()
		}
		h.runErr = err
		close(h.dead)
	}()
}

// close stops the rank goroutines and waits for them, returning the host's
// terminal error. The engine calls it once, after its batcher has exited.
func (h *host) close() error {
	close(h.quit)
	<-h.dead
	return h.runErr
}

// fail marks the host failed (first worker error wins).
func (h *host) fail() {
	h.failOnce.Do(func() { close(h.failed) })
}

// load builds one model instance across every mesh rank. Source.Build does
// no collectives, so the whole world loads from this one control goroutine;
// the instance becomes visible to the workers only once complete.
func (h *host) load(src Source, dt tensor.DType) (*instance, error) {
	select {
	case <-h.quit:
		return nil, ErrClosed
	case <-h.failed:
		return nil, ErrClosed
	default:
	}
	arch := src.Arch()
	world := h.ranks * h.replicas
	inst := &instance{
		arch:   arch,
		dtype:  dt,
		models: make([]*model.FoundationModel, world),
		lo:     make([]int, world),
		hi:     make([]int, world),
	}
	for r := 0; r < world; r++ {
		mdl, err := src.Build(h.mesh.TPComm(r))
		if err != nil {
			return nil, err
		}
		if dt != tensor.F64 {
			// Serving weights are frozen after restore, so the one-time f32
			// panel prepack stays valid for the instance's lifetime.
			mdl.SetInferDType(dt)
		}
		lo, hi := mdl.DCHAG().ChannelBounds()
		inst.models[r], inst.lo[r], inst.hi[r] = mdl, lo, hi
	}
	h.mu.Lock()
	h.nextID++
	inst.id = h.nextID
	h.instances[inst.id] = inst
	h.mu.Unlock()
	return inst, nil
}

// unload drops a drained instance from the worker-visible table.
func (h *host) unload(inst *instance) {
	h.mu.Lock()
	delete(h.instances, inst.id)
	h.mu.Unlock()
}

// instanceByID resolves a broadcast instance id on a follower rank. A miss
// is a protocol violation (an instance was unloaded with batches still in
// flight — the drain ordering forbids it), reported as a rank panic so the
// mesh aborts instead of hanging.
func (h *host) instanceByID(id int64) *instance {
	h.mu.RLock()
	inst := h.instances[id]
	h.mu.RUnlock()
	if inst == nil {
		panic(fmt.Sprintf("serve: batch for unloaded instance %d", id))
	}
	return inst
}

// takeWork non-blockingly receives one stranded micro-batch from the work
// channel (teardown path).
func (h *host) takeWork() (*batchJob, bool) {
	select {
	case bj := <-h.work:
		return bj, bj != nil
	default:
		return nil, false
	}
}

// worker is one mesh rank's serving loop. Rank tp=0 of each TP group is the
// replica leader: it pulls assembled batches from the work channel,
// broadcasts a control word (serve/stop + instance id) and then the batch
// over its group, and once the group's forward completes hands the batch to
// its responder and goes straight back for the next one. Both broadcasts are
// views: every rank reads its channel shard straight out of the leader's
// pooled batch, which the responder returns to the pool in complete, after
// the collective has closed. Every rank runs the no-grad forward on its
// instance's channel shard; the stage's AllGather of partial tokens and the
// model's AllGather of its predictions share the batch out after the gather
// (model.FoundationModel.Infer). A group of one runs the same loop: its
// broadcasts are identities and its leader reads the batch in place.
func (h *host) worker(rank int, m *dist.Mesh) (err error) {
	// inflight is the micro-batch this leader has pulled but not yet handed
	// to its responder; if the worker dies holding one (its own panic, or
	// an abort cascade from another rank), the exit path fails it so its
	// clients get ErrClosed instead of silence. A handed-off batch is the
	// responder's, which the exit path waits for.
	var inflight *batchJob
	var rsp *responder
	defer func() {
		if rec := recover(); rec != nil {
			err = comm.RankPanicError("serve", rank, rec)
		}
		if rsp != nil {
			close(rsp.in)
			<-rsp.down
			if err == nil {
				err = rsp.err
			}
		}
		if err != nil {
			h.fail()
		}
		if inflight != nil {
			inflight.fail()
		}
	}()
	tpc := m.TPComm(rank)
	row := h.trace.Rank(rank)
	lead := m.Spec.CoordOf(rank).TP == 0
	// preds are the leader's two answer buffers: the forward's predictions
	// are model scratch the next Infer overwrites, so each batch's are
	// copied into the buffer the responder is not reading. The hand-off is
	// unbuffered, so batch k+1 reaches the responder only once batch k is
	// answered, and two buffers are all the overlap needs.
	var preds [2]*tensor.Tensor
	if lead {
		rsp = startResponder(rank)
	}
	// ctrl is the leader's reusable control word: [op, instance id] with
	// op 0 = stop, 1 = serve. Followers learn which instance the batch
	// belongs to from the broadcast, so batches for the old and the new
	// instance can interleave during a hot swap.
	ctrl := tensor.FromSlice([]float64{0, 0}, 2)
	var (
		op, id    float64
		inst      *instance
		in, shard *tensor.Tensor // the forward's input; this rank's copied channel shard
	)
	readCtrl := func(src *tensor.Tensor) { op, id = src.Data[0], src.Data[1] }
	// readShard copies this rank's channel shard straight out of the
	// leader's batch, the only copy the batch needs. A leader whose shard is
	// every channel reads its own batch in place.
	readShard := func(x *tensor.Tensor) {
		lo, hi := inst.lo[rank], inst.hi[rank]
		if lead && lo == 0 && hi == x.Shape[1] {
			in = x
			return
		}
		shard = tensor.EnsureShape(shard, x.Shape[0], hi-lo, x.Shape[2], x.Shape[3])
		tensor.SliceAxisInto(shard, x, 1, lo, hi)
		in = shard
	}
	for k := 0; ; k ^= 1 {
		var bj *batchJob
		var send, x *tensor.Tensor
		if lead {
			select {
			case bj = <-h.work:
				inflight = bj
				ctrl.Data[0], ctrl.Data[1] = 1, float64(bj.inst.id)
				send, x = ctrl, bj.x
			case <-h.quit:
				ctrl.Data[0] = 0
				// Deliberately leader-only: the followers' matching
				// collective is the control Broadcast they are already
				// blocked in below; the stop sentinel pairs with it.
				//lint:ignore collectivesym pairs with the followers' control Broadcast in their loop head
				tpc.Broadcast(ctrl, 0, readCtrl)
				return nil
			case <-h.failed:
				// The failing rank's return aborts every mesh group, which
				// releases this replica's peers from their pending
				// Broadcast; no farewell needed (or possible).
				return nil
			case <-rsp.down:
				// The responder died answering; the exit path returns its
				// root cause, which aborts the group like a rank failure.
				return nil
			}
		}
		tpc.Broadcast(send, 0, readCtrl)
		if op == 0 {
			return nil
		}
		inst = bj.instOrLookup(h, int64(id))
		tpc.Broadcast(x, 0, readShard)
		sp := row.Begin("infer", "serve")
		pred := inst.models[rank].Infer(in, nil)
		sp.End()
		if !lead {
			continue
		}
		preds[k] = tensor.EnsureShape(preds[k], pred.Shape...)
		copy(preds[k].Data, pred.Data)
		select {
		case rsp.in <- answer{bj: bj, pred: preds[k]}:
			inflight = nil
		case <-rsp.down:
			return nil
		}
	}
}

// instOrLookup returns the batch's instance: the leader carries the pointer
// (bj non-nil only on the leader), followers resolve the broadcast id.
func (bj *batchJob) instOrLookup(h *host, id int64) *instance {
	if bj != nil {
		return bj.inst
	}
	return h.instanceByID(id)
}

// answer is one forwarded micro-batch on its way to the leader's responder:
// the batch and its predictions, in a leader-owned buffer.
type answer struct {
	bj   *batchJob
	pred *tensor.Tensor
}

// responder answers its replica leader's micro-batches on a goroutine of
// its own, in the order they ran, while the leader broadcasts and runs the
// next one. It issues no collective.
type responder struct {
	in   chan answer   // unbuffered: at most one answered batch overlaps the running one
	down chan struct{} // closed when the responder has exited
	err  error         // the answer stage's panic, written before down closes
}

// startResponder starts the responder of the replica led by rank. The
// leader closes in when it exits and then waits on down.
func startResponder(rank int) *responder {
	r := &responder{in: make(chan answer), down: make(chan struct{})}
	go r.run(rank)
	return r
}

// run completes each handed-off batch. A panic fails the host through the
// leader (which returns err) and answers every request of the batch that
// has no response yet with ErrClosed, exactly once.
func (r *responder) run(rank int) {
	var cur *batchJob
	defer func() {
		if rec := recover(); rec != nil {
			r.err = comm.RankPanicError("serve", rank, rec)
			if cur != nil {
				cur.fail()
			}
		}
		close(r.down)
	}()
	for a := range r.in {
		cur = a.bj
		a.bj.e.complete(a.bj, a.pred)
		cur = nil
	}
}
