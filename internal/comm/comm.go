// Package comm implements the collective-communication substrate the
// repository's distributed simulation runs on: a group of in-process ranks
// (one goroutine each) with rendezvous AllGather, AllReduce, ReduceScatter,
// Broadcast and Barrier operations that really move tensor data between
// ranks.
//
// It is the functional stand-in for RCCL on Frontier (see DESIGN.md): the
// algorithmic content of the paper — which tensors cross which rank boundary,
// in which pass — is exercised exactly, deterministically, and without
// hardware. Every operation is recorded in a Traffic ledger with the byte
// volume a ring implementation of the collective would put on the wire, so
// tests can assert communication claims (e.g. the D-CHAG module's
// zero-communication backward pass) quantitatively.
//
// Every collective exchanges views, not copies: a rank publishes its tensors
// at the opening rendezvous, peers read them where they lie, and a closing
// rendezvous returns them. The rule: nobody mutates a tensor it passed to a
// collective until the collective returns, and the collective returns only
// after every peer has finished reading it.
package comm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Group is the shared rendezvous state for a set of ranks. Create one with
// NewGroup and hand each rank its Communicator via Comm(rank), or use Run to
// manage the goroutines.
type Group struct {
	size int

	mu       sync.Mutex
	cond     *sync.Cond
	phase    uint64 // guarded by mu
	arrived  int    // guarded by mu
	slots    []any  // guarded by mu
	gathered []any  // guarded by mu; rewritten in place by each completed exchange
	aborted  bool   // guarded by mu

	traffic *Traffic
}

// NewGroup creates a rendezvous group of the given size with a fresh traffic
// ledger.
func NewGroup(size int) *Group {
	if size <= 0 {
		panic(fmt.Sprintf("comm: group size %d must be positive", size))
	}
	g := &Group{size: size, slots: make([]any, size), gathered: make([]any, size), traffic: NewTraffic()}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Size returns the number of ranks in the group.
func (g *Group) Size() int { return g.size }

// Traffic returns the group's communication ledger.
func (g *Group) Traffic() *Traffic { return g.traffic }

// Comm returns the communicator handle for the given rank.
func (g *Group) Comm(rank int) *Communicator {
	if rank < 0 || rank >= g.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, g.size))
	}
	return &Communicator{group: g, rank: rank, phaseLabel: "default", scalar: tensor.New(1)}
}

// Abort releases every rank blocked in a collective; they panic with
// ErrAborted. Used when one rank fails so the others do not hang. Abort is
// idempotent and safe to call from any goroutine.
func (g *Group) Abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// ErrAborted is the panic value raised in ranks blocked on a collective when
// the group is aborted.
var ErrAborted = fmt.Errorf("comm: group aborted")

// RankPanicError converts a value recovered from a rank goroutine's panic
// into that rank's error: ErrAborted releases are wrapped so errors.Is
// identifies them as cascades; anything else is reported as a panic. Shared
// by Run and dist.RunMesh so both classify failures identically.
func RankPanicError(scope string, rank int, rec any) error {
	if err, ok := rec.(error); ok {
		if errors.Is(err, ErrAborted) {
			return fmt.Errorf("%s: rank %d released from aborted collective: %w", scope, rank, ErrAborted)
		}
		// Wrap rather than format so typed panic values — e.g.
		// *faultinject.Killed — stay reachable via errors.As through the
		// per-rank error chain.
		return fmt.Errorf("%s: rank %d panicked: %w", scope, rank, err)
	}
	return fmt.Errorf("%s: rank %d panicked: %v", scope, rank, rec)
}

// RootCause picks the error to surface from a per-rank error slice: the
// first real error in rank order, falling back to the first ErrAborted
// cascade when no rank produced one, or nil when all succeeded.
func RootCause(errs []error) error {
	var abortErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrAborted):
			if abortErr == nil {
				abortErr = err
			}
		default:
			return err
		}
	}
	return abortErr
}

// exchange is the core rendezvous: every rank deposits one value and
// receives the slice of all ranks' values (indexed by rank). It blocks until
// all ranks of the group have arrived. The slice is the group's and is valid
// until the caller's next exchange: the next one completes only once every
// rank has entered it, so nobody is still reading this one's.
//
// dchag:hotpath — depositing a pointer allocates nothing.
func (g *Group) exchange(rank int, val any) []any {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted {
		panic(ErrAborted)
	}
	gen := g.phase
	g.slots[rank] = val
	g.arrived++
	if g.arrived == g.size {
		g.arrived = 0
		copy(g.gathered, g.slots)
		g.phase++
		g.cond.Broadcast()
	} else {
		for g.phase == gen && !g.aborted {
			g.cond.Wait()
		}
		// Panic only when the rendezvous cannot complete. A rank whose
		// phase already advanced holds the exchanged data; releasing it
		// with ErrAborted anyway would make the set of "failed" ranks
		// depend on wake-up order — nondeterminism the fault-injection
		// harness cannot tolerate.
		if g.phase == gen && g.aborted {
			panic(ErrAborted)
		}
	}
	return g.gathered
}

// Run spawns fn on every rank of a fresh group and waits for all of them.
// A panic in any rank aborts the group (so no rank hangs) and is returned as
// an error. When one rank's failure cascades — other ranks are released from
// blocked collectives with ErrAborted — the root cause is returned in
// preference to the cascade errors. The group is returned for traffic
// inspection.
func Run(size int, fn func(c *Communicator) error) (*Group, error) {
	g := NewGroup(size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = RankPanicError("comm", rank, rec)
					g.Abort()
				}
			}()
			errs[rank] = fn(g.Comm(rank))
			if errs[rank] != nil {
				g.Abort()
			}
		}(r)
	}
	wg.Wait()
	return g, RootCause(errs)
}

// FaultInjector observes every base collective a communicator executes, immediately before (pre=true) and after
// (pre=false) the rendezvous. id names the calling rank in the injector's
// own namespace — dist.Mesh wires it to the world rank, so one injector
// sees a single per-rank operation sequence across all axis groups. An
// injector kills a rank by panicking from Point; the panic propagates
// exactly like any other rank failure (group abort, ErrAborted cascades).
type FaultInjector interface {
	Point(id int, op Op, pre bool)
}

// Observer is the passive twin of FaultInjector: it sees every base
// collective immediately before (pre=true)
// and after (pre=false) the rendezvous, without the power to kill the
// rank. The post point carries the per-rank ring wire volume in float64
// elements (the same figure the Traffic ledger records; multiply by
// BytesPerElem for bytes); pre points carry zero. Observers must be fast
// and allocation-free — they run inline on every communication operation
// of their rank — and need not be safe for concurrent use: each
// communicator calls its own observer from its single rank goroutine.
//
// Hook ordering places the observer strictly inside the fault-injection
// envelope (pre: fault then observe; post: observe then fault), so a
// fault fired at a post point cannot strand a half-open span.
type Observer interface {
	OpPoint(op Op, pre bool, elems int)
}

// Communicator is a single rank's handle on its group. It is not safe for
// concurrent use by multiple goroutines; each rank goroutine owns one.
type Communicator struct {
	group      *Group
	rank       int
	phaseLabel string
	fault      FaultInjector
	faultID    int
	obs        Observer

	ops    operands             // what AllReduce publishes; peers hold &ops, never a copy
	one    [2][1]*tensor.Tensor // AllReduceInto's one-tensor dst and src lists
	scalar *tensor.Tensor       // AllReduceScalarSum's operand
	// peerElems counts the elements AllReduce and ReduceScatterSum read from
	// other ranks' tensors; the tests hold it to the ring volume the ledger
	// records.
	peerElems int64
}

// operands is one rank's side of an AllReduce: the tensors themselves.
type operands struct {
	dst, src []*tensor.Tensor
}

// SetFaultInjector installs f on this communicator under the given injector
// id. Must be called before the communicator is used; the convenience
// wrappers (AllReduceInto, AllReduceScalarSum) instrument only the base
// operation they are built from, so each collective is exactly one
// injection point pair.
func (c *Communicator) SetFaultInjector(f FaultInjector, id int) {
	c.fault = f
	c.faultID = id
}

func (c *Communicator) faultPoint(op Op, pre bool) {
	if c.fault != nil {
		c.fault.Point(c.faultID, op, pre)
	}
}

// SetObserver installs o on this communicator. Like SetFaultInjector it
// must be called before the communicator is used; the convenience
// wrappers instrument only the base operations they are built from, so
// each collective is exactly one observed interval.
func (c *Communicator) SetObserver(o Observer) { c.obs = o }

// obsPoint forwards one hook point to the installed observer. The
// disabled path is a single nil test.
//
// dchag:hotpath
func (c *Communicator) obsPoint(op Op, pre bool, elems int) {
	if c.obs != nil {
		c.obs.OpPoint(op, pre, elems)
	}
}

// Rank returns this communicator's rank within the group.
func (c *Communicator) Rank() int { return c.rank }

// Size returns the group size.
func (c *Communicator) Size() int { return c.group.size }

// Group returns the underlying group.
func (c *Communicator) Group() *Group { return c.group }

// SetPhase labels subsequent traffic entries (e.g. "forward", "backward").
// Tests use phases to assert where communication happens.
func (c *Communicator) SetPhase(label string) { c.phaseLabel = label }

func (c *Communicator) record(op Op, elems int) {
	c.group.traffic.Record(c.rank, c.phaseLabel, op, elems)
}

// Barrier blocks until every rank has reached it.
func (c *Communicator) Barrier() {
	c.faultPoint(OpBarrier, true)
	c.obsPoint(OpBarrier, true, 0)
	c.record(OpBarrier, 0)
	c.group.exchange(c.rank, nil)
	c.obsPoint(OpBarrier, false, 0)
	c.faultPoint(OpBarrier, false)
}

// AllGatherEach shows every rank's tensor to visit, in rank order and where
// it lies (this rank's own included): nothing is copied. visit must neither
// mutate nor retain part — the closing rendezvous hands it back to its
// owner. Contributions may differ in shape.
//
// dchag:hotpath
func (c *Communicator) AllGatherEach(x *tensor.Tensor, visit func(rank int, part *tensor.Tensor)) {
	c.faultPoint(OpAllGather, true)
	c.obsPoint(OpAllGather, true, 0)
	total := 0
	for r, v := range c.group.exchange(c.rank, x) {
		part := v.(*tensor.Tensor)
		total += part.Numel()
		visit(r, part)
	}
	c.group.exchange(c.rank, nil) // every peer has finished reading x
	// Ring all-gather wire volume per rank: every element that is not
	// already local transits this rank once.
	c.record(OpAllGather, total-x.Numel())
	c.obsPoint(OpAllGather, false, total-x.Numel())
	c.faultPoint(OpAllGather, false)
}

// AllReduce leaves in every rank's dst the elementwise sum of all ranks'
// src, times scale. The lists are treated as one flat sequence of N
// elements and every rank's must agree tensor by tensor in shape; dst may be
// src. It runs as a reduce-scatter and an all-gather over the callers' own
// tensors: rank r sums flat slice [r*N/n, (r+1)*N/n) of every rank's src, in
// rank order, into its dst and scales the finished sum; after a rendezvous
// every rank copies the other slices from their owners' dst; a closing
// rendezvous ends the peers' reads. A slice boundary may fall inside a
// tensor and N need not divide by n. On one rank at scale 1 a tensor that is
// its own operand is left untouched: the sum over one rank of x, times 1, is
// x. The rendezvous, the fault and observer points and the ledger record
// still run, so a one-rank call counts as a collective like any other.
//
// dchag:hotpath
func (c *Communicator) AllReduce(dst, src []*tensor.Tensor, scale float64) {
	n, total, wire := c.Size(), 0, 0
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: AllReduce into %d tensors from %d", len(dst), len(src)))
	}
	for k, s := range src {
		if !tensor.SameShape(dst[k], s) {
			panic(fmt.Sprintf("comm: AllReduce tensor %d: dst %v, src %v", k, dst[k].Shape, s.Shape))
		}
		total += len(s.Data)
		// Ring all-reduce wire volume per rank: 2*(n-1)/n elements.
		wire += 2 * (n - 1) * len(s.Data) / n
	}
	c.faultPoint(OpAllReduce, true)
	c.obsPoint(OpAllReduce, true, 0)
	c.ops = operands{dst: dst, src: src}
	peers := c.group.exchange(c.rank, &c.ops)
	for r, p := range peers {
		theirs := p.(*operands).src
		if len(theirs) != len(src) {
			panic(fmt.Sprintf("comm: AllReduce of %d tensors meets rank %d's %d", len(src), r, len(theirs)))
		}
		for k, s := range src {
			if !tensor.SameShape(s, theirs[k]) {
				panic(fmt.Sprintf("comm: AllReduce shape mismatch at tensor %d: %v vs rank %d's %v", k, s.Shape, r, theirs[k].Shape))
			}
		}
	}
	same := n == 1 && scale == 1
	off := 0
	for k, d := range dst {
		if a, b := clip(off, len(d.Data), c.rank*total/n, (c.rank+1)*total/n); a < b && !(same && d == src[k]) {
			reduceSegment(d.Data[a:b], peers, k, a, scale)
			c.peerElems += int64((n - 1) * (b - a))
		}
		off += len(d.Data)
	}
	c.group.exchange(c.rank, &c.ops) // every slice is reduced
	for r, p := range peers {
		if r == c.rank {
			continue
		}
		theirs, off := p.(*operands).dst, 0
		for k, d := range dst {
			if a, b := clip(off, len(d.Data), r*total/n, (r+1)*total/n); a < b {
				c.peerElems += int64(copy(d.Data[a:b], theirs[k].Data[a:b]))
			}
			off += len(d.Data)
		}
	}
	c.group.exchange(c.rank, &c.ops) // every peer has finished reading src and dst
	c.record(OpAllReduce, wire)
	c.obsPoint(OpAllReduce, false, wire)
	c.faultPoint(OpAllReduce, false)
}

// clip returns the part of flat range [lo,hi) that falls in a tensor of n
// elements starting at flat offset off, in the tensor's own indices.
func clip(off, n, lo, hi int) (a, b int) {
	return max(lo-off, 0), min(hi-off, n)
}

// reduceSegment writes dst[i] = (sum over ranks q, ascending, of rank q's
// src[k].Data[a+i]) * scale: the one place tensors of different ranks are
// added. The sum is built in a stack block, so dst may be this rank's src.
func reduceSegment(dst []float64, peers []any, k, a int, scale float64) {
	var acc [512]float64
	for len(dst) > 0 {
		blk := acc[:min(len(dst), len(acc))]
		for q, p := range peers {
			s := p.(*operands).src[k].Data[a : a+len(blk)]
			if q == 0 {
				copy(blk, s)
				continue
			}
			for i, v := range s {
				blk[i] += v
			}
		}
		for i, v := range blk {
			dst[i] = v * scale
		}
		dst, a = dst[len(blk):], a+len(blk)
	}
}

// AllReduceInto is AllReduce of one tensor, unscaled; it returns dst.
//
// dchag:hotpath
func (c *Communicator) AllReduceInto(dst, src *tensor.Tensor) *tensor.Tensor {
	c.one[0][0], c.one[1][0] = dst, src
	c.AllReduce(c.one[0][:], c.one[1][:], 1)
	return dst
}

// AllReduceScalarSum sums a scalar across ranks (convenience for losses and
// metrics).
//
// dchag:hotpath
func (c *Communicator) AllReduceScalarSum(v float64) float64 {
	c.scalar.Data[0] = v
	return c.AllReduceInto(c.scalar, c.scalar).Data[0]
}

// ReduceScatterSum splits every rank's tensor into Size equal chunks along
// axis and returns to rank r a fresh tensor holding chunk r summed over the
// ranks in rank order, ((c₀+c₁)+c₂)+…, each peer's chunk read where it lies.
// Every rank's tensor must have the same shape, and the axis extent must be
// divisible by the group size. The result is the only allocation; a closing
// rendezvous hands every operand back to its owner.
func (c *Communicator) ReduceScatterSum(x *tensor.Tensor, axis int) *tensor.Tensor {
	n := c.Size()
	if axis < 0 {
		axis += len(x.Shape)
	}
	if axis < 0 || axis >= len(x.Shape) || x.Shape[axis]%n != 0 {
		panic(fmt.Sprintf("comm: ReduceScatterSum of %v along axis %d over %d ranks", x.Shape, axis, n))
	}
	// The tensor is outer runs of n*w elements; chunk r is the w elements at
	// offset r*w of every run.
	outer, w := 1, x.Shape[axis]/n
	for _, d := range x.Shape[:axis] {
		outer *= d
	}
	for _, d := range x.Shape[axis+1:] {
		w *= d
	}
	c.faultPoint(OpReduceScatter, true)
	c.obsPoint(OpReduceScatter, true, 0)
	peers := c.group.exchange(c.rank, x)
	for r, p := range peers {
		if theirs := p.(*tensor.Tensor); !tensor.SameShape(x, theirs) {
			panic(fmt.Sprintf("comm: ReduceScatterSum shape mismatch: %v vs rank %d's %v", x.Shape, r, theirs.Shape))
		}
	}
	shape := append([]int(nil), x.Shape...)
	shape[axis] /= n
	out := tensor.New(shape...)
	for o := 0; o < outer; o++ {
		dst, at := out.Data[o*w:(o+1)*w], (o*n+c.rank)*w
		for q, p := range peers {
			src := p.(*tensor.Tensor).Data[at : at+w]
			if q == 0 {
				copy(dst, src)
				continue
			}
			for i, v := range src {
				dst[i] += v
			}
		}
	}
	c.peerElems += int64((n - 1) * len(out.Data))
	c.group.exchange(c.rank, nil) // every peer has finished reading x
	// Ring reduce-scatter wire volume per rank: (n-1)/n elements.
	c.record(OpReduceScatter, (n-1)*x.Numel()/n)
	c.obsPoint(OpReduceScatter, false, (n-1)*x.Numel()/n)
	c.faultPoint(OpReduceScatter, false)
	return out
}

// Broadcast shows root's tensor to visit on every rank, root included, where
// it lies: nothing is copied. Non-root ranks pass nil. visit must neither
// mutate nor retain src — the closing rendezvous hands it back to root.
//
// dchag:hotpath
func (c *Communicator) Broadcast(x *tensor.Tensor, root int, visit func(src *tensor.Tensor)) {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("comm: Broadcast root %d out of range", root))
	}
	c.faultPoint(OpBroadcast, true)
	c.obsPoint(OpBroadcast, true, 0)
	src := c.group.exchange(c.rank, x)[root].(*tensor.Tensor)
	if src == nil {
		panic(fmt.Sprintf("comm: Broadcast root %d passed no tensor", root))
	}
	visit(src)
	c.group.exchange(c.rank, nil) // every peer has finished reading src
	c.record(OpBroadcast, src.Numel())
	c.obsPoint(OpBroadcast, false, src.Numel())
	c.faultPoint(OpBroadcast, false)
}
