package faultinject

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/leakcheck"
)

// recoverKilled runs fn and returns the *Killed it panics with (nil if it
// returns normally).
func recoverKilled(fn func()) (k *Killed) {
	defer func() {
		if rec := recover(); rec != nil {
			var ok bool
			if k, ok = rec.(*Killed); !ok {
				panic(rec)
			}
		}
	}()
	fn()
	return nil
}

func TestStepFaultFiresOnceAtExactStep(t *testing.T) {
	p := NewPlan().KillAtStep(2, 5)
	if k := recoverKilled(func() { p.Step(2, 4) }); k != nil {
		t.Fatalf("fired at wrong step: %v", k)
	}
	if k := recoverKilled(func() { p.Step(1, 5) }); k != nil {
		t.Fatalf("fired on wrong rank: %v", k)
	}
	k := recoverKilled(func() { p.Step(2, 5) })
	if k == nil {
		t.Fatal("fault did not fire")
	}
	if k.Fault.Rank != 2 || k.Fault.Step != 5 || k.Fault.When != AtStep {
		t.Fatalf("wrong fault: %+v", k.Fault)
	}
	// Replays of the same step (post-rollback) must not re-kill.
	if k := recoverKilled(func() { p.Step(2, 5) }); k != nil {
		t.Fatalf("fault fired twice: %v", k)
	}
	if got := p.Fired(); len(got) != 1 {
		t.Fatalf("Fired() = %v", got)
	}
}

func TestPointSequencePreAndPost(t *testing.T) {
	// Rank 0 dies before its op 2; rank 1 dies after its op 1. The (pre,
	// post) pair around one op shares a sequence number.
	p := NewPlan().KillBeforeOp(0, 2).KillAfterOp(1, 1)
	step := func(id int) *Killed {
		return recoverKilled(func() { p.Point(id, comm.OpBarrier, true); p.Point(id, comm.OpBarrier, false) })
	}
	if k := step(0); k != nil {
		t.Fatalf("rank 0 op 0: %v", k)
	}
	if k := step(0); k != nil {
		t.Fatalf("rank 0 op 1: %v", k)
	}
	k := step(0)
	if k == nil || k.Fault.When != BeforeOp || k.Fault.Seq != 2 {
		t.Fatalf("rank 0 op 2: %v", k)
	}
	if k := step(1); k != nil {
		t.Fatalf("rank 1 op 0: %v", k)
	}
	k = step(1)
	if k == nil || k.Fault.When != AfterOp || k.Fault.Seq != 1 {
		t.Fatalf("rank 1 op 1: %v", k)
	}
}

func TestAdvanceScopesGenerationsAndResetsCounters(t *testing.T) {
	p := NewPlan().Kill(Fault{Gen: 1, Rank: 0, Seq: 0, When: BeforeOp})
	// Generation 0: the gen-1 fault is dormant even at a matching seq.
	if k := recoverKilled(func() { p.Point(0, comm.OpBarrier, true) }); k != nil {
		t.Fatalf("gen-1 fault fired in gen 0: %v", k)
	}
	p.Advance(1)
	// Counters reset: this is op seq 0 of generation 1 again.
	k := recoverKilled(func() { p.Point(0, comm.OpBarrier, true) })
	if k == nil || k.Fault.Gen != 1 {
		t.Fatalf("gen-1 fault did not fire after Advance: %v", k)
	}
}

// TestKilledPropagatesThroughCommRun wires a plan into a real rendezvous
// group: the victim's panic must abort the group, release the peers, and
// surface as a typed *Killed through the run error chain.
func TestKilledPropagatesThroughCommRun(t *testing.T) {
	leakcheck.Check(t)
	plan := NewPlan().KillBeforeOp(1, 1)
	_, err := comm.Run(3, func(c *comm.Communicator) error {
		c.SetFaultInjector(plan, c.Rank())
		c.Barrier()
		c.Barrier() // rank 1 dies entering this one; others are released
		return nil
	})
	if err == nil {
		t.Fatal("run succeeded despite injected kill")
	}
	var k *Killed
	if !errors.As(err, &k) {
		t.Fatalf("err = %v, want *Killed in chain", err)
	}
	if k.Fault.Rank != 1 || k.Fault.Seq != 1 || k.Fault.When != BeforeOp {
		t.Fatalf("wrong fault surfaced: %+v", k.Fault)
	}
	if errors.Is(err, comm.ErrAborted) {
		t.Fatalf("err = %v reports the cascade, not the injected kill", err)
	}
}
