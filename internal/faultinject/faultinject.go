// Package faultinject provides a deterministic fault plan for the in-process
// distributed simulation: kill rank r at the top of step s, immediately
// before or after that rank's k-th communication operation, or in the middle
// of a checkpoint save — all expressed as data, so every chaos scenario in
// the elastic-training tests is a reproducible unit test rather than a
// sleep-and-kill race.
//
// A Plan implements comm.FaultInjector. Install it on a mesh with
// dist.Mesh.SetFaultInjector (which names each communicator by its world
// rank) and thread the same Plan through the training loop's Step and
// Checkpoint hooks. A fault fires by panicking with *Killed from the victim
// rank's own goroutine; the panic propagates through the normal
// abort-and-cascade machinery, so survivors observe exactly what they would
// on a real rank loss. Faults are scoped to an elastic generation
// (Fault.Gen, default 0); Advance moves the plan to the next generation and
// resets the per-rank operation counters.
package faultinject

import (
	"fmt"
	"sync"

	"repro/internal/comm"
)

// When identifies the trigger point of a Fault.
type When int

const (
	// AtStep kills the rank at the top of optimizer step Fault.Step, before
	// the step issues any collective.
	AtStep When = iota
	// BeforeOp kills the rank immediately before its Fault.Seq-th
	// collective of the generation (counted per rank from zero).
	BeforeOp
	// AfterOp kills the rank immediately after its Fault.Seq-th
	// communication operation completes.
	AfterOp
	// InCheckpoint kills the rank during the checkpoint save that commits
	// step Fault.Step — after the rank's own shard is written, before the
	// manifest commit — leaving a partial, uncommitted step directory.
	InCheckpoint
)

func (w When) String() string {
	switch w {
	case AtStep:
		return "at-step"
	case BeforeOp:
		return "before-op"
	case AfterOp:
		return "after-op"
	case InCheckpoint:
		return "in-checkpoint"
	}
	return fmt.Sprintf("when(%d)", int(w))
}

// Fault is one planned rank kill. Gen scopes it to an elastic generation
// (0 for the initial mesh); Step is the global training step for AtStep and
// InCheckpoint faults; Seq is the per-rank operation index for BeforeOp and
// AfterOp faults.
type Fault struct {
	Gen  int
	Rank int
	Step int
	Seq  int
	When When
}

func (f Fault) String() string {
	switch f.When {
	case BeforeOp, AfterOp:
		return fmt.Sprintf("rank %d %s %d (gen %d)", f.Rank, f.When, f.Seq, f.Gen)
	default:
		return fmt.Sprintf("rank %d %s %d (gen %d)", f.Rank, f.When, f.Step, f.Gen)
	}
}

// Killed is the panic value (and resulting error cause) of an injected rank
// kill. dist surfaces it through the failed rank's error chain, so
// errors.As(err, new(*Killed)) distinguishes injected deaths from organic
// failures.
type Killed struct {
	Fault Fault
}

func (k *Killed) Error() string {
	return fmt.Sprintf("faultinject: killed %s", k.Fault)
}

// Plan is a deterministic set of Faults plus the runtime counters that
// decide when each fires. One Plan is shared by every rank goroutine of a
// run; all methods are safe for concurrent use.
type Plan struct {
	mu     sync.Mutex
	faults []Fault     // guarded by mu
	fired  []bool      // guarded by mu; parallel to faults
	gen    int         // guarded by mu; active generation
	ops    map[int]int // guarded by mu; injector id -> next operation seq
}

// NewPlan returns an empty fault plan (a valid injector that never fires).
func NewPlan() *Plan {
	return &Plan{ops: make(map[int]int)}
}

// Kill adds a fault to the plan and returns the plan for chaining.
func (p *Plan) Kill(f Fault) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = append(p.faults, f)
	p.fired = append(p.fired, false)
	return p
}

// KillAtStep plans a generation-0 kill of rank at the top of step.
func (p *Plan) KillAtStep(rank, step int) *Plan {
	return p.Kill(Fault{Rank: rank, Step: step, When: AtStep})
}

// KillBeforeOp plans a generation-0 kill of rank immediately before its
// seq-th communication operation.
func (p *Plan) KillBeforeOp(rank, seq int) *Plan {
	return p.Kill(Fault{Rank: rank, Seq: seq, When: BeforeOp})
}

// KillAfterOp plans a generation-0 kill of rank immediately after its
// seq-th communication operation.
func (p *Plan) KillAfterOp(rank, seq int) *Plan {
	return p.Kill(Fault{Rank: rank, Seq: seq, When: AfterOp})
}

// KillInCheckpoint plans a generation-0 kill of rank during the checkpoint
// save committing step (after its shard is written, before the manifest).
func (p *Plan) KillInCheckpoint(rank, step int) *Plan {
	return p.Kill(Fault{Rank: rank, Step: step, When: InCheckpoint})
}

// Advance scopes the plan to generation gen and resets the per-rank
// operation counters. The elastic supervisor calls it before launching each
// generation; no rank goroutines run concurrently with it.
func (p *Plan) Advance(gen int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen = gen
	p.ops = make(map[int]int)
}

// Fired returns the faults that have fired so far, in plan order.
func (p *Plan) Fired() []Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Fault
	for i, f := range p.faults {
		if p.fired[i] {
			out = append(out, f)
		}
	}
	return out
}

// takeLocked marks and returns the first unfired fault of the active generation
// matching the predicate. It must be called with p.mu held.
func (p *Plan) takeLocked(match func(Fault) bool) (Fault, bool) {
	for i, f := range p.faults {
		if !p.fired[i] && f.Gen == p.gen && match(f) {
			p.fired[i] = true
			return f, true
		}
	}
	return Fault{}, false
}

// Step is the training-loop hook at the top of global step s on rank. It
// fires AtStep faults.
func (p *Plan) Step(rank, step int) {
	p.mu.Lock()
	f, ok := p.takeLocked(func(f Fault) bool {
		return f.When == AtStep && f.Rank == rank && f.Step == step
	})
	p.mu.Unlock()
	if ok {
		panic(&Killed{Fault: f})
	}
}

// Checkpoint is the training-loop hook after rank writes its shard of the
// checkpoint committing step. It fires InCheckpoint faults.
func (p *Plan) Checkpoint(rank, step int) {
	p.mu.Lock()
	f, ok := p.takeLocked(func(f Fault) bool {
		return f.When == InCheckpoint && f.Rank == rank && f.Step == step
	})
	p.mu.Unlock()
	if ok {
		panic(&Killed{Fault: f})
	}
}

// Point implements comm.FaultInjector: id is the world rank (wired by
// dist.Mesh.SetFaultInjector), and each (pre, post) pair around one
// communication operation shares a sequence number; the counter advances
// after the post callback.
func (p *Plan) Point(id int, op comm.Op, pre bool) {
	p.mu.Lock()
	seq := p.ops[id]
	if !pre {
		p.ops[id] = seq + 1
	}
	want := BeforeOp
	if !pre {
		want = AfterOp
	}
	f, ok := p.takeLocked(func(f Fault) bool {
		return f.When == want && f.Rank == id && f.Seq == seq
	})
	p.mu.Unlock()
	if ok {
		panic(&Killed{Fault: f})
	}
}
