// Package comm is a fixture stub: the analyzer matches by import path
// and method name only, so the bodies are empty.
package comm

// Tensor stands in for the real tensor type.
type Tensor struct{}

// Communicator mirrors the collective surface of the real package.
type Communicator struct{ rank, size int }

func (c *Communicator) Rank() int { return c.rank }

func (c *Communicator) Size() int { return c.size }

func (c *Communicator) Barrier() {}

func (c *Communicator) AllGather(x *Tensor) []*Tensor { return nil }

func (c *Communicator) AllGatherEach(x *Tensor, visit func(rank int, part *Tensor)) {}

func (c *Communicator) AllReduce(dst, src []*Tensor, scale float64) {}

func (c *Communicator) AllReduceInto(dst, src *Tensor) *Tensor { return dst }

func (c *Communicator) AllReduceSum(x *Tensor) *Tensor { return x }

func (c *Communicator) AllReduceScalarSum(v float64) float64 { return v }

func (c *Communicator) Broadcast(x *Tensor, root int, visit func(src *Tensor)) {}

func (c *Communicator) SetPhase(label string) {}
