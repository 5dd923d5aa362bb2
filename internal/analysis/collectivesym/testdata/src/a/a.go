// Package a exercises collectivesym: collectives guarded by
// rank-conditional branches fire, symmetric ones do not.
package a

import (
	"repro/internal/comm"
	"repro/internal/obs"
)

// symmetric collectives are fine at any nesting that is not
// rank-conditional.
func symmetric(c *comm.Communicator, steps int) {
	c.Barrier()
	for s := 0; s < steps; s++ {
		if s%2 == 0 {
			c.AllReduceSum(nil)
		}
	}
	if c.Size() > 1 {
		c.Barrier()
	}
}

func direct(c *comm.Communicator) {
	if c.Rank() == 0 {
		c.Barrier() // want `rank-conditional if`
	}
}

// tainted: the condition uses a local two assignments removed from the
// rank expression; the fixpoint taint pass must carry it through.
func tainted(c *comm.Communicator) {
	primary := c.Rank() == 0
	ok := primary
	if ok {
		c.AllReduceSum(nil) // want `rank-conditional if`
	}
}

func elseBranch(c *comm.Communicator) {
	if c.Rank() == 0 {
		_ = 1
	} else {
		c.AllGather(nil) // want `rank-conditional if`
	}
}

func switchCases(c *comm.Communicator, x int) {
	switch c.Rank() {
	case 0:
		c.Barrier() // want `rank-conditional switch`
	}
	switch x {
	case 1:
		c.Barrier() // tag is not rank-derived: fine
	}
}

// conditions themselves are evaluated by every rank, so a collective
// inside the condition expression is symmetric.
func inCondition(c *comm.Communicator) {
	if c.AllReduceScalarSum(1) > 0 {
		_ = 1
	}
}

// a communicator method that is not a collective is local to the rank.
func local(c *comm.Communicator) {
	if c.Rank() == 0 {
		c.SetPhase("leader")
	} else {
		c.SetPhase("follower")
	}
}

// funcLit: collectives inside a rank-guarded closure body still fire.
func funcLit(c *comm.Communicator) {
	if c.Rank() == 0 {
		f := func() {
			c.Barrier() // want `rank-conditional if`
		}
		f()
	}
}

func suppressed(c *comm.Communicator) {
	if c.Rank() == 0 {
		//lint:ignore collectivesym deliberate leader-only sentinel for this fixture
		c.Broadcast(nil, 0, func(*comm.Tensor) {})
	}
}

// survivorGuard models the elastic-training bug class: gating a collective
// on "did my rank survive" is still a rank-derived condition — the dead
// rank's peers would rendezvous without it and hang. Generation membership
// must be rebuilt by re-rendezvous, never by skipping collectives.
func survivorGuard(c *comm.Communicator, failedRank int) {
	survivor := c.Rank() != failedRank
	if survivor {
		c.AllReduceSum(nil) // want `rank-conditional if`
	}
}

// leaderSync: the view collectives rendezvous three times (all-reduce) or
// twice (the others); one under a rank guard strands the peers at the
// first.
func leaderSync(c *comm.Communicator, grads []*comm.Tensor) {
	if c.Rank() == 0 {
		c.AllReduce(grads, grads, 0.5)                        // want `rank-conditional if`
		c.AllReduceInto(grads[0], grads[0])                   // want `rank-conditional if`
		c.AllGatherEach(grads[0], func(int, *comm.Tensor) {}) // want `rank-conditional if`
	}
	c.AllReduce(grads, grads, 0.5)
}

// instrumented is the traced training-step shape: spans and instants
// wrap the collectives, but every rank records and every rank calls the
// same collective sequence, so nothing fires. Rows are nil-safe by
// contract, which is why no tracer-presence guard ever wraps a
// collective.
func instrumented(c *comm.Communicator, row *obs.Rank, steps int) {
	for s := 0; s < steps; s++ {
		sp := row.Begin("grad-sync", "comm/dp")
		c.AllReduceSum(nil)
		sp.EndBytes(64)
		row.Instant("step", "train")
	}
	done := row.Begin("barrier", "comm/dp")
	c.Barrier()
	done.End()
}

// tracedLeaderOnly: instrumentation does not launder a rank guard — a
// collective under the rank conditional fires even with a span around it.
func tracedLeaderOnly(c *comm.Communicator, row *obs.Rank) {
	if c.Rank() == 0 {
		sp := row.Begin("broadcast", "comm/tp")
		c.Broadcast(nil, 0, func(*comm.Tensor) {}) // want `rank-conditional if`
		sp.End()
	}
}

// recordLeaderOnly models the "only trace rank 0" anti-pattern drifting
// into the collective itself: the guard taints through a local and the
// collective inside it fires.
func recordLeaderOnly(c *comm.Communicator, row *obs.Rank) {
	record := c.Rank() == 0
	if record {
		row.Instant("flush", "train")
		c.AllReduceSum(nil) // want `rank-conditional if`
	}
}

// generationLoop is the symmetric shape the elastic supervisor actually
// uses: every rank of the generation runs the same step range and the same
// collectives; boundaries and step counts are rank-independent, so the
// barriers and reductions sit outside any rank conditional.
func generationLoop(c *comm.Communicator, start, end int, checkpointEvery int) {
	for s := start; s < end; s++ {
		c.AllReduceSum(nil)
		if checkpointEvery > 0 && (s+1)%checkpointEvery == 0 {
			if c.Rank() == 0 {
				_ = s // leader-only bookkeeping, no collective
			}
			c.Barrier()
		}
	}
}
