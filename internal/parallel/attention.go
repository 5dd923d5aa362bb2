package parallel

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ParallelSelfAttention is the tensor-parallel multi-head self-attention of
// the paper's Sec. 4.3 baseline: Q/K/V projections are column-parallel
// (each rank owns heads/t heads), the attention product (nn.AttentionCore)
// runs on local heads only, and the output projection is row-parallel. One forward AllReduce
// (in the row-parallel output) and one backward AllReduce (for the
// replicated input) per layer.
//
// Constructed with the same name/seed as nn.NewSelfAttention, it reproduces
// the serial layer exactly.
type ParallelSelfAttention struct {
	Comm         *comm.Communicator
	Embed, Heads int
	LocalHeads   int
	Wq, Wk, Wv   *ColumnParallelLinear
	Wo           *RowParallelLinear

	core nn.AttentionCore // over the rank's local heads
}

// NewParallelSelfAttention shards nn.NewSelfAttention(name, embed, heads,
// seed) across the TP group c.
func NewParallelSelfAttention(name string, embed, heads int, seed int64, c *comm.Communicator) *ParallelSelfAttention {
	t := c.Size()
	if heads%t != 0 {
		panic(fmt.Sprintf("parallel: heads %d not divisible by TP size %d", heads, t))
	}
	return &ParallelSelfAttention{
		Comm:  c,
		Embed: embed, Heads: heads, LocalHeads: heads / t,
		Wq:   NewColumnParallelLinear(name+".wq", embed, embed, nn.SubSeed(seed, 0), c),
		Wk:   NewColumnParallelLinear(name+".wk", embed, embed, nn.SubSeed(seed, 1), c),
		Wv:   NewColumnParallelLinear(name+".wv", embed, embed, nn.SubSeed(seed, 2), c),
		Wo:   NewRowParallelLinear(name+".wo", embed, embed, nn.SubSeed(seed, 3), c),
		core: nn.AttentionCore{Heads: heads / t, HeadDim: embed / heads},
	}
}

// Forward computes the attention output [B,T,E] from replicated input
// [B,T,E]. Only the row-parallel output projection communicates.
//
// dchag:hotpath
func (a *ParallelSelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	return a.Wo.Forward(a.core.Forward(a.Wq.Forward(x), a.Wk.Forward(x), a.Wv.Forward(x)))
}

// Backward back-propagates to the replicated input with a single AllReduce
// over the summed Q/K/V partial input gradients, (dq + dk) + dv, each sum
// formed as the next local shard's product stores, in place in Wv's
// input-gradient scratch.
//
// dchag:hotpath
func (a *ParallelSelfAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dq, dk, dv := a.core.Backward(a.Wo.Backward(grad))
	dx := a.Wv.Local.BackwardAdd(dv, a.Wk.Local.BackwardAdd(dk, a.Wq.Local.Backward(dq)))
	return a.Comm.AllReduceInto(dx, dx)
}

// Params returns the local shard parameters.
func (a *ParallelSelfAttention) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, a.Wq.Params()...)
	ps = append(ps, a.Wk.Params()...)
	ps = append(ps, a.Wv.Params()...)
	ps = append(ps, a.Wo.Params()...)
	return ps
}

// ParallelMLP is the tensor-parallel feed-forward block: fc1 is
// column-parallel, the activation is local, fc2 is row-parallel.
type ParallelMLP struct {
	Comm *comm.Communicator
	Fc1  *ColumnParallelLinear
	Fc2  *RowParallelLinear
	Act  *nn.GELU
}

// NewParallelMLP shards nn.NewMLP(name, embed, hidden, seed) across the TP
// group c.
func NewParallelMLP(name string, embed, hidden int, seed int64, c *comm.Communicator) *ParallelMLP {
	return &ParallelMLP{
		Comm: c,
		Fc1:  NewColumnParallelLinear(name+".fc1", embed, hidden, nn.SubSeed(seed, 0), c),
		Fc2:  NewRowParallelLinear(name+".fc2", hidden, embed, nn.SubSeed(seed, 1), c),
		Act:  nn.NewGELU(),
	}
}

// Forward applies fc2(gelu(fc1(x))) with one AllReduce in fc2.
//
// dchag:hotpath
func (m *ParallelMLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.Fc2.Forward(m.Act.Forward(m.Fc1.Forward(x)))
}

// Backward back-propagates with one AllReduce for the replicated input, in
// place in fc1's input-gradient scratch.
//
// dchag:hotpath
func (m *ParallelMLP) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := m.Fc1.BackwardPartial(m.Act.Backward(m.Fc2.Backward(grad)))
	return m.Comm.AllReduceInto(dx, dx)
}

// Params returns the local shard parameters.
func (m *ParallelMLP) Params() []*nn.Param {
	return append(m.Fc1.Params(), m.Fc2.Params()...)
}

// ParallelTransformerBlock is the tensor-parallel pre-norm ViT block. Layer
// norms are replicated: their inputs (and therefore their gradients) are
// identical on every TP rank, so they need no synchronization.
type ParallelTransformerBlock struct {
	Embed, Heads int
	Norm1, Norm2 *nn.LayerNorm
	Attn         *ParallelSelfAttention
	FFN          *ParallelMLP

	h, out *tensor.Tensor // residual scratch (forward)
	dh, dx *tensor.Tensor // residual scratch (backward)
}

// NewParallelTransformerBlock shards nn.NewTransformerBlock(name, embed,
// heads, seed) across the TP group c.
func NewParallelTransformerBlock(name string, embed, heads int, seed int64, c *comm.Communicator) *ParallelTransformerBlock {
	return &ParallelTransformerBlock{
		Embed: embed,
		Heads: heads,
		Norm1: nn.NewLayerNorm(name+".norm1", embed),
		Norm2: nn.NewLayerNorm(name+".norm2", embed),
		Attn:  NewParallelSelfAttention(name+".attn", embed, heads, nn.SubSeed(seed, 0), c),
		FFN:   NewParallelMLP(name+".mlp", embed, 4*embed, nn.SubSeed(seed, 1), c),
	}
}

// Forward applies the block to replicated x [B,T,E]; like
// nn.TransformerBlock it returns block-owned scratch.
//
// dchag:hotpath
func (b *ParallelTransformerBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	b.h = tensor.EnsureShape(b.h, x.Shape...)
	tensor.AddInto(b.h, x, b.Attn.Forward(b.Norm1.Forward(x)))
	b.out = tensor.EnsureShape(b.out, x.Shape...)
	return tensor.AddInto(b.out, b.h, b.FFN.Forward(b.Norm2.Forward(b.h)))
}

// Backward back-propagates through both residual branches.
//
// dchag:hotpath
func (b *ParallelTransformerBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b.dh = tensor.EnsureShape(b.dh, grad.Shape...)
	tensor.AddInto(b.dh, grad, b.Norm2.Backward(b.FFN.Backward(grad)))
	b.dx = tensor.EnsureShape(b.dx, grad.Shape...)
	return tensor.AddInto(b.dx, b.dh, b.Norm1.Backward(b.Attn.Backward(b.dh)))
}

// Params returns the block's local parameters (norms replicated, attention
// and MLP sharded).
func (b *ParallelTransformerBlock) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, b.Norm1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.Norm2.Params()...)
	ps = append(ps, b.FFN.Params()...)
	return ps
}

// Partition splits the block's parameters into rank-local weight shards and
// group-replicated parameters (layer norms and row-parallel biases, whose
// gradients are identical on every TP rank). Distributed global-norm
// computations count local shards across the group and replicated
// parameters once.
func (b *ParallelTransformerBlock) Partition() (local, replicated []*nn.Param) {
	replicated = append(replicated, b.Norm1.Params()...)
	replicated = append(replicated, b.Norm2.Params()...)
	for _, col := range []*ColumnParallelLinear{b.Attn.Wq, b.Attn.Wk, b.Attn.Wv, b.FFN.Fc1} {
		local = append(local, col.Params()...)
	}
	for _, row := range []*RowParallelLinear{b.Attn.Wo, b.FFN.Fc2} {
		local = append(local, row.Local.Params()...)
		replicated = append(replicated, row.Bias)
	}
	return local, replicated
}
