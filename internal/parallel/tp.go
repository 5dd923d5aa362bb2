// Package parallel implements the distributed-training strategies the paper
// layers D-CHAG on top of: Megatron-style tensor parallelism (column/row
// parallel linears, head-sharded attention, parallel transformer blocks),
// PyTorch-FSDP-style parameter sharding, and data parallelism with gradient
// all-reduce. All strategies are functionally exact: with the same seeds
// they reproduce the serial modules' outputs and training trajectories to
// float64 round-off, which the tests assert.
package parallel

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ColumnParallelLinear shards a Linear's output dimension across the TP
// group: rank r holds columns [r*Out/t, (r+1)*Out/t) of the full weight. The
// forward pass is local (the input is replicated); the backward pass
// all-reduces the input gradient, which is the Megatron "f" operator.
type ColumnParallelLinear struct {
	Comm     *comm.Communicator
	In, Out  int // full dimensions
	LocalOut int
	Local    *nn.Linear
}

// NewColumnParallelLinear builds rank's shard of the Linear that
// nn.NewLinear(name, in, out, seed) would build serially: the full weight is
// generated from the same seed and the rank's column block is sliced out, so
// TP and serial runs are bit-identical.
func NewColumnParallelLinear(name string, in, out int, seed int64, c *comm.Communicator) *ColumnParallelLinear {
	t := c.Size()
	if out%t != 0 {
		panic(fmt.Sprintf("parallel: output dim %d not divisible by TP size %d", out, t))
	}
	full := nn.NewLinear(name, in, out, seed)
	lo := out / t
	w := tensor.SliceAxis(full.Weight.W, 1, c.Rank()*lo, (c.Rank()+1)*lo)
	b := tensor.SliceAxis(full.Bias.W, 0, c.Rank()*lo, (c.Rank()+1)*lo)
	l := &ColumnParallelLinear{
		Comm: c, In: in, Out: out, LocalOut: lo,
		Local: nn.NewLinearFrom(fmt.Sprintf("%s.col%d", name, c.Rank()), w, b),
	}
	l.Local.Weight.MarkShard(name+".weight", 1, []int{in, out}, c.Rank()*lo, (c.Rank()+1)*lo)
	l.Local.Bias.MarkShard(name+".bias", 0, []int{out}, c.Rank()*lo, (c.Rank()+1)*lo)
	return l
}

// Forward computes the local output slice [.., Out/t] from the replicated
// input. No communication.
//
// dchag:hotpath
func (l *ColumnParallelLinear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return l.Local.Forward(x)
}

// BackwardPartial accumulates local weight gradients and returns this
// rank's *partial* input gradient (the contribution of its column block).
// The caller must all-reduce the sum of partials once per replicated input.
//
// dchag:hotpath
func (l *ColumnParallelLinear) BackwardPartial(grad *tensor.Tensor) *tensor.Tensor {
	return l.Local.Backward(grad)
}

// Backward is BackwardPartial followed by the all-reduce, in place, for
// callers that use this layer standalone.
func (l *ColumnParallelLinear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := l.BackwardPartial(grad)
	return l.Comm.AllReduceInto(dx, dx)
}

// Params returns the local shard's parameters.
func (l *ColumnParallelLinear) Params() []*nn.Param { return l.Local.Params() }

// RowParallelLinear shards a Linear's input dimension across the TP group:
// rank r holds rows [r*In/t, (r+1)*In/t). Its input is the column-parallel
// output slice; the forward pass all-reduces the partial products (the
// Megatron "g" operator) and the backward pass is local.
//
// The bias is replicated and added after the reduction; since every rank
// sees the identical reduced activation, bias gradients stay identical
// across ranks without synchronization.
type RowParallelLinear struct {
	Comm    *comm.Communicator
	In, Out int // full dimensions
	LocalIn int
	Local   *nn.Linear // bias-free local product
	Bias    *nn.Param
}

// NewRowParallelLinear builds rank's row shard of the serial
// nn.NewLinear(name, in, out, seed) layer.
func NewRowParallelLinear(name string, in, out int, seed int64, c *comm.Communicator) *RowParallelLinear {
	t := c.Size()
	if in%t != 0 {
		panic(fmt.Sprintf("parallel: input dim %d not divisible by TP size %d", in, t))
	}
	full := nn.NewLinear(name, in, out, seed)
	li := in / t
	w := tensor.SliceAxis(full.Weight.W, 0, c.Rank()*li, (c.Rank()+1)*li)
	l := &RowParallelLinear{
		Comm: c, In: in, Out: out, LocalIn: li,
		Local: nn.NewLinearFrom(fmt.Sprintf("%s.row%d", name, c.Rank()), w, nil),
		Bias:  nn.NewParam(name+".bias", full.Bias.W),
	}
	l.Local.Weight.MarkShard(name+".weight", 0, []int{in, out}, c.Rank()*li, (c.Rank()+1)*li)
	return l
}

// Forward computes the partial product from the local input slice,
// all-reduces it where the local product left it, and adds the replicated
// bias there.
//
// dchag:hotpath
func (l *RowParallelLinear) Forward(xLocal *tensor.Tensor) *tensor.Tensor {
	y := l.Local.Forward(xLocal)
	l.Comm.AllReduceInto(y, y)
	for lo := 0; lo < len(y.Data); lo += l.Out {
		row := y.Data[lo : lo+l.Out]
		for j, bv := range l.Bias.W.Data {
			row[j] += bv
		}
	}
	return y
}

// Backward accumulates weight and bias gradients and returns the gradient
// with respect to the local input slice. No communication.
//
// dchag:hotpath
func (l *RowParallelLinear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := l.Local.Backward(grad) // checks grad's last dimension
	tensor.AccumRows(l.Bias.Grad.Data, grad.Data, l.Out, len(grad.Data)/l.Out, nil)
	return dx
}

// Params returns the local weight shard and the replicated bias.
func (l *RowParallelLinear) Params() []*nn.Param {
	return append(l.Local.Params(), l.Bias)
}
