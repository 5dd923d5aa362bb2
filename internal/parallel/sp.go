package parallel

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Sequence parallelism (paper Sec. 3.5): instead of sharding the embedding
// dimension (TP), SP shards the *token* dimension of the ViT. The paper
// notes D-CHAG composes with SP exactly as with TP — the channel stage ends
// just before the self-attention layers, where the fused representation can
// be scattered along the sequence axis.
//
// This implementation keeps parameters replicated and tokens sharded:
//
//   - layer norms and MLPs act independently per token, so they run on the
//     local shard with no communication;
//   - self-attention computes local queries against the AllGathered keys and
//     values (ring-attention without the overlap optimization); the backward
//     pass ReduceScatters the key/value gradients back to their owners.
//
// Parameter gradients are computed from local token shards only, so they
// must be averaged across the SP group after backward — SyncGradients does
// this, mirroring how Megatron-SP folds the reduction into its TP
// collectives.
type SPSelfAttention struct {
	Comm         *comm.Communicator
	Embed, Heads int
	Wq, Wk, Wv   *nn.Linear
	Wo           *nn.Linear

	core nn.AttentionCore // local queries against the gathered keys and values
}

// NewSPSelfAttention builds the sequence-parallel twin of
// nn.NewSelfAttention(name, embed, heads, seed): parameters are replicated
// bit-for-bit on every rank.
func NewSPSelfAttention(name string, embed, heads int, seed int64, c *comm.Communicator) *SPSelfAttention {
	if embed%heads != 0 {
		panic(fmt.Sprintf("parallel: embed %d not divisible by heads %d", embed, heads))
	}
	return &SPSelfAttention{
		Comm:  c,
		Embed: embed, Heads: heads,
		Wq:   nn.NewLinear(name+".wq", embed, embed, nn.SubSeed(seed, 0)),
		Wk:   nn.NewLinear(name+".wk", embed, embed, nn.SubSeed(seed, 1)),
		Wv:   nn.NewLinear(name+".wv", embed, embed, nn.SubSeed(seed, 2)),
		Wo:   nn.NewLinear(name+".wo", embed, embed, nn.SubSeed(seed, 3)),
		core: nn.AttentionCore{Heads: heads, HeadDim: embed / heads},
	}
}

// Forward consumes the local token shard [B, T/p, E] and returns the
// attention output for the same shard. One AllGather of K and one of V.
func (a *SPSelfAttention) Forward(xLocal *tensor.Tensor) *tensor.Tensor {
	if len(xLocal.Shape) != 3 {
		panic(fmt.Sprintf("parallel: SPSelfAttention.Forward wants [B,Tl,E], got %v", xLocal.Shape))
	}
	q := a.Wq.Forward(xLocal)                                // [B,Tl,E]
	kFull := a.Comm.AllGatherConcat(a.Wk.Forward(xLocal), 1) // [B,T,E]
	vFull := a.Comm.AllGatherConcat(a.Wv.Forward(xLocal), 1)
	return a.Wo.Forward(a.core.Forward(q, kFull, vFull)) // [B,Tl,E]
}

// Backward consumes the local output gradient [B, T/p, E] and returns the
// local input gradient. K/V gradients are ReduceScattered back to the token
// owners (the SP backward communication the paper contrasts with D-CHAG's
// silent backward).
func (a *SPSelfAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dq, dkFull, dvFull := a.core.Backward(a.Wo.Backward(grad)) // [B,Tl,E], [B,T,E] x 2

	// Each rank holds only the contribution of its queries to dK/dV; sum the
	// contributions and keep the local token slice.
	dkLocal := a.Comm.ReduceScatterSum(dkFull, 1)
	dvLocal := a.Comm.ReduceScatterSum(dvFull, 1)

	return a.Wv.BackwardAdd(dvLocal, a.Wk.BackwardAdd(dkLocal, a.Wq.Backward(dq)))
}

// Params returns the replicated projection parameters.
func (a *SPSelfAttention) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, a.Wq.Params()...)
	ps = append(ps, a.Wk.Params()...)
	ps = append(ps, a.Wv.Params()...)
	ps = append(ps, a.Wo.Params()...)
	return ps
}

// SPTransformerBlock is the sequence-parallel pre-norm ViT block: norms and
// the MLP run on the local token shard; attention gathers K/V.
type SPTransformerBlock struct {
	Embed, Heads int
	Norm1, Norm2 *nn.LayerNorm
	Attn         *SPSelfAttention
	FFN          *nn.MLP

	h, out *tensor.Tensor // residual scratch (forward)
	dh, dx *tensor.Tensor // residual scratch (backward)
}

// NewSPTransformerBlock builds the SP twin of nn.NewTransformerBlock with
// identical parameters.
func NewSPTransformerBlock(name string, embed, heads int, seed int64, c *comm.Communicator) *SPTransformerBlock {
	return &SPTransformerBlock{
		Embed: embed,
		Heads: heads,
		Norm1: nn.NewLayerNorm(name+".norm1", embed),
		Norm2: nn.NewLayerNorm(name+".norm2", embed),
		Attn:  NewSPSelfAttention(name+".attn", embed, heads, nn.SubSeed(seed, 0), c),
		FFN:   nn.NewMLP(name+".mlp", embed, 4*embed, nn.SubSeed(seed, 1)),
	}
}

// Forward applies the block to the local token shard [B, T/p, E]; like
// nn.TransformerBlock it returns block-owned scratch.
func (b *SPTransformerBlock) Forward(xLocal *tensor.Tensor) *tensor.Tensor {
	b.h = tensor.EnsureShape(b.h, xLocal.Shape...)
	tensor.AddInto(b.h, xLocal, b.Attn.Forward(b.Norm1.Forward(xLocal)))
	b.out = tensor.EnsureShape(b.out, xLocal.Shape...)
	return tensor.AddInto(b.out, b.h, b.FFN.Forward(b.Norm2.Forward(b.h)))
}

// Backward back-propagates through both residual branches on the shard.
func (b *SPTransformerBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b.dh = tensor.EnsureShape(b.dh, grad.Shape...)
	tensor.AddInto(b.dh, grad, b.Norm2.Backward(b.FFN.Backward(grad)))
	b.dx = tensor.EnsureShape(b.dx, grad.Shape...)
	return tensor.AddInto(b.dx, b.dh, b.Norm1.Backward(b.Attn.Backward(b.dh)))
}

// Params returns the block's replicated parameters.
func (b *SPTransformerBlock) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, b.Norm1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.Norm2.Params()...)
	ps = append(ps, b.FFN.Params()...)
	return ps
}

// SyncGradients sums the block's parameter gradients across the SP group:
// each rank saw only its token shard's contribution, and the serial gradient
// is the sum over all tokens. Required once per step, after Backward.
func (b *SPTransformerBlock) SyncGradients() {
	for _, p := range b.Params() {
		b.Attn.Comm.AllReduceInto(p.Grad, p.Grad)
	}
}

// ScatterTokens splits a replicated sequence [B, T, E] into this rank's
// shard [B, T/p, E]; the boundary operation between a D-CHAG channel stage
// (whose output is replicated) and an SP ViT.
func ScatterTokens(x *tensor.Tensor, c *comm.Communicator) *tensor.Tensor {
	return tensor.SplitEqual(x, 1, c.Size())[c.Rank()]
}

// GatherTokens reassembles the full sequence from this rank's shard (used
// before the replicated head).
func GatherTokens(xLocal *tensor.Tensor, c *comm.Communicator) *tensor.Tensor {
	return c.AllGatherConcat(xLocal, 1)
}
