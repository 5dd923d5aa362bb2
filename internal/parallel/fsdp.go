package parallel

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FSDP implements fully-sharded data parallelism over a module's parameter
// list, following the PyTorch FSDP flow the paper layers on top of TP
// (Sec. 3.4): every rank owns a 1/n flat shard of each parameter (plus its
// gradient and optimizer state), parameters are materialized by AllGather
// before use, and gradients are reduce-scattered so each rank keeps only its
// shard's (mean) gradient.
//
// The optimizer must be constructed over ShardParams(); the live module
// parameters are refreshed from the shards by GatherParams() at the start of
// every step. Because AdamW updates are elementwise, the sharded training
// trajectory is identical to DDP's, which the tests assert.
type FSDP struct {
	Comm   *comm.Communicator
	Live   []*nn.Param // the module's full parameters
	shards []*nn.Param // rank-owned flat shards (optimizer targets)
	padded []int       // padded flat length per parameter
}

// NewFSDP shards the given parameters across the communicator's group,
// seeding the shards from the parameters' current values.
func NewFSDP(c *comm.Communicator, params []*nn.Param) *FSDP {
	f := &FSDP{
		Comm:   c,
		Live:   params,
		shards: make([]*nn.Param, len(params)),
		padded: make([]int, len(params)),
	}
	n := c.Size()
	for i, p := range params {
		padded := ((p.Numel() + n - 1) / n) * n
		f.padded[i] = padded
		chunk := padded / n
		shard := tensor.New(chunk)
		lo := c.Rank() * chunk
		for j := 0; j < chunk; j++ {
			if lo+j < p.Numel() {
				shard.Data[j] = p.W.Data[lo+j]
			}
		}
		f.shards[i] = nn.NewParam(fmt.Sprintf("%s.shard%d", p.Name, c.Rank()), shard)
	}
	return f
}

// ShardParams returns the rank-owned parameter shards; hand these to the
// optimizer.
func (f *FSDP) ShardParams() []*nn.Param { return f.shards }

// GatherParams materializes the full parameters from all ranks' shards
// (the pre-forward AllGather of the FSDP flow): rank r's shard lands in the
// live parameter at r·chunk, its padding past the end dropped.
//
// dchag:hotpath
func (f *FSDP) GatherParams() {
	for i, p := range f.Live {
		chunk := f.shards[i].Numel()
		f.Comm.AllGatherEach(f.shards[i].W, func(r int, part *tensor.Tensor) {
			if lo := r * chunk; lo < p.Numel() {
				copy(p.W.Data[lo:], part.Data)
			}
		})
	}
}

// ReduceScatterGrads averages the live gradients across ranks and keeps only
// this rank's shard (the post-backward ReduceScatter of the FSDP flow). Live
// gradients are invalid afterwards; only shard gradients are meaningful.
func (f *FSDP) ReduceScatterGrads() {
	n := f.Comm.Size()
	for i, p := range f.Live {
		flat := tensor.New(f.padded[i])
		copy(flat.Data, p.Grad.Data)
		shardGrad := f.Comm.ReduceScatterSum(flat, 0)
		tensor.ScaleInPlace(shardGrad, 1/float64(n))
		copy(f.shards[i].Grad.Data, shardGrad.Data)
	}
}

// ZeroGrads clears both live and shard gradients.
func (f *FSDP) ZeroGrads() {
	nn.ZeroGrads(f.Live)
	nn.ZeroGrads(f.shards)
}

// ShardBytes returns the per-rank parameter bytes held between steps — the
// memory-saving FSDP exists for. Used by tests and reports.
func (f *FSDP) ShardBytes() int64 {
	var total int64
	for _, s := range f.shards {
		total += int64(s.Numel()) * 8
	}
	return total
}

// DDP implements plain data parallelism: every rank holds a full replica and
// processes a different micro-batch; gradients are averaged with one
// AllReduce over the whole gradient list at the end of the backward pass.
type DDP struct {
	Comm   *comm.Communicator
	Params []*nn.Param
	grads  []*tensor.Tensor // Params' gradients, the collective's operand list
}

// NewDDP wraps the given replica parameters.
func NewDDP(c *comm.Communicator, params []*nn.Param) *DDP {
	d := &DDP{Comm: c, Params: params, grads: make([]*tensor.Tensor, len(params))}
	for i, p := range params {
		d.grads[i] = p.Grad
	}
	return d
}

// SyncGradients averages every parameter's gradient across the group, in
// place and in one collective. Call after backward, before the optimizer
// step.
//
// dchag:hotpath
func (d *DDP) SyncGradients() {
	d.Comm.AllReduce(d.grads, d.grads, 1/float64(d.Comm.Size()))
}
