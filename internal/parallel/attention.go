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
func (a *ParallelSelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor { return a.forward(x, nil) }

// forward is Forward with res added where the output projection adds its
// bias (a block's residual x + Attn(LN1 x)); nil adds nothing.
//
// dchag:hotpath
func (a *ParallelSelfAttention) forward(x, res *tensor.Tensor) *tensor.Tensor {
	return a.Wo.forward(a.core.Forward(a.Wq.Forward(x), a.Wk.Forward(x), a.Wv.Forward(x)), res)
}

// Backward is BackwardIn in a workspace made for the call: the form for a
// layer run alone.
func (a *ParallelSelfAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return a.BackwardIn(grad, new(nn.BlockGrads))
}

// BackwardIn back-propagates to the replicated input in ws
// (nn.BlockGrads.BackwardAttention over the local shards and heads) with a
// single AllReduce over the summed Q/K/V partial input gradients, in place.
//
// dchag:hotpath
func (a *ParallelSelfAttention) BackwardIn(grad *tensor.Tensor, ws *nn.BlockGrads) *tensor.Tensor {
	dx := ws.BackwardAttention(grad, &a.core, a.Wq.Local, a.Wk.Local, a.Wv.Local, a.Wo)
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
func (m *ParallelMLP) Forward(x *tensor.Tensor) *tensor.Tensor { return m.forward(x, nil) }

// forward is Forward with res added where fc2 adds its bias (a block's
// residual h + MLP(LN2 h)); nil adds nothing.
//
// dchag:hotpath
func (m *ParallelMLP) forward(x, res *tensor.Tensor) *tensor.Tensor {
	return m.Fc2.forward(m.Act.Forward(m.Fc1.Forward(x)), res)
}

// Backward is BackwardIn in a workspace made for the call: the form for a
// layer run alone.
func (m *ParallelMLP) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return m.BackwardIn(grad, new(nn.BlockGrads))
}

// BackwardIn back-propagates in ws (nn.BlockGrads.BackwardMLP over the local
// shards) with one AllReduce for the replicated input, in place.
//
// dchag:hotpath
func (m *ParallelMLP) BackwardIn(grad *tensor.Tensor, ws *nn.BlockGrads) *tensor.Tensor {
	dx := ws.BackwardMLP(grad, m.Fc1.Local, m.Fc2, m.Act)
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

	// Grads is the workspace Backward writes every buffer into, as
	// nn.TransformerBlock.Grads; each rank's model has its own.
	Grads *nn.BlockGrads
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
		Grads: new(nn.BlockGrads),
	}
}

// Forward applies the block to replicated x [B,T,E]. Like
// nn.TransformerBlock, each residual sum is written where its branch ends:
// the row-parallel Wo and fc2 add it with their bias after the AllReduce,
// and fc2's output is returned.
//
// dchag:hotpath
func (b *ParallelTransformerBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := b.Attn.forward(b.Norm1.Forward(x), x)
	return b.FFN.forward(b.Norm2.Forward(h), h)
}

// Backward back-propagates through both residual branches in b.Grads.
func (b *ParallelTransformerBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return b.Grads.BackwardBlock(grad, b.Norm1, b.Norm2, b.Attn, b.FFN)
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
