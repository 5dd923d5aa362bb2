package comm

import (
	"fmt"

	"repro/internal/tensor"
)

// Point-to-point messaging between ranks: rank-addressed, buffered, and
// released by Abort like the rendezvous collectives in comm.go.

type pairKey struct{ from, to int }

// pairChan returns the buffered channel carrying messages from -> to,
// creating it on first use.
func (g *Group) pairChan(from, to int) chan *tensor.Tensor {
	g.p2pMu.Lock()
	defer g.p2pMu.Unlock()
	if g.p2p == nil {
		g.p2p = make(map[pairKey]chan *tensor.Tensor)
	}
	k := pairKey{from, to}
	ch, ok := g.p2p[k]
	if !ok {
		// Capacity 4 keeps ring schedules (send then receive) deadlock-free.
		ch = make(chan *tensor.Tensor, 4)
		g.p2p[k] = ch
	}
	return ch
}

// Send transmits a copy of x to the destination rank. It blocks only when
// the pair's in-flight buffer is full. A group Abort releases a blocked
// Send with an ErrAborted panic, matching the collectives' behavior.
func (c *Communicator) Send(to int, x *tensor.Tensor) {
	if to < 0 || to >= c.Size() || to == c.rank {
		panic(fmt.Sprintf("comm: Send to invalid rank %d from %d", to, c.rank))
	}
	c.faultPoint(OpSend, true)
	c.obsPoint(OpSend, true, 0)
	select {
	case c.group.pairChan(c.rank, to) <- x.Clone():
		// Recorded only on success so a Send released by Abort does not
		// count phantom bytes in post-failure traffic inspection.
		c.record(OpSend, x.Numel())
		c.obsPoint(OpSend, false, x.Numel())
	case <-c.group.done:
		panic(ErrAborted)
	}
	c.faultPoint(OpSend, false)
}

// Recv blocks until a message from the source rank arrives and returns it.
// A group Abort releases a blocked Recv with an ErrAborted panic, so a
// failed peer cannot strand this rank on the channel.
func (c *Communicator) Recv(from int) *tensor.Tensor {
	if from < 0 || from >= c.Size() || from == c.rank {
		panic(fmt.Sprintf("comm: Recv from invalid rank %d on %d", from, c.rank))
	}
	c.faultPoint(OpRecv, true)
	c.obsPoint(OpRecv, true, 0)
	select {
	case t := <-c.group.pairChan(from, c.rank):
		// The observer's post point carries the received volume even
		// though Recv moves no wire bytes of its own (the Send side
		// recorded them) — the span still shows what arrived.
		c.obsPoint(OpRecv, false, t.Numel())
		c.faultPoint(OpRecv, false)
		return t
	case <-c.group.done:
		panic(ErrAborted)
	}
}
