// Package nn implements neural-network layers with explicit forward and
// backward passes: linear, layer normalization, GELU, multi-head self- and
// cross-attention, per-channel patch embedding (the tokenizer of the paper's
// Fig. 1 architecture), learned embeddings, transformer blocks, and losses.
//
// There is deliberately no autograd tape. Every layer caches what its
// backward pass needs during Forward and exposes Backward explicitly. This
// mirrors how tensor-parallel, FSDP and D-CHAG implementations reason about
// gradients (and lets tests assert the paper's "no communication in the
// backward pass" claim by construction). Layers are not safe for concurrent
// use; in the distributed simulation every rank owns its own replica.
//
// Buffer ownership: layers return layer-owned scratch from Forward, Infer
// and Backward (grown once, reused every step — see tensor.EnsureShape), so
// steady-state training and serving steps are allocation-free. The returned
// tensor stays valid until the same method on the same layer runs again.
// Layers are single-stream: Forward then Backward strictly alternate on one
// goroutine, and Infer may interleave only outside a Forward/Backward pair
// (between optimizer steps).
//
// Determinism: every constructor takes an explicit seed. Layers that own a
// logically-sharded parameter (attention heads, channel shards) generate the
// full logical parameter from that seed and slice it, so distributed shards
// are bit-identical to the serial layer's parameters.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a learnable parameter together with its accumulated gradient.
type Param struct {
	// Name identifies the parameter for debugging and optimizer state.
	Name string
	// W holds the parameter values.
	W *tensor.Tensor
	// Grad accumulates the gradient; it always has W's shape.
	Grad *tensor.Tensor
	// Shard annotates W as a contiguous slice of a larger logical tensor;
	// nil means the parameter is whole (replicated or unsharded).
	Shard *ShardInfo
}

// ShardInfo describes a parameter's place in a logical (unsharded) tensor.
// Layers that slice a full logical tensor deterministically (attention-head
// shards, D-CHAG channel shards — see the SubSeed contract) attach one so
// checkpointing can reassemble the logical tensor from any saved topology
// and re-slice it for the loading one.
type ShardInfo struct {
	// Logical is the logical tensor's name, shared by every shard of it and
	// equal to the serial layer's parameter name.
	Logical string
	// Axis is the sharded axis of the logical tensor.
	Axis int
	// FullShape is the logical tensor's full shape.
	FullShape []int
	// Lo, Hi bound this shard's slice [Lo, Hi) along Axis.
	Lo, Hi int
}

// NewParam allocates a parameter wrapping w with a zeroed gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape...)}
}

// MarkShard annotates the parameter as the [lo, hi) slice along axis of the
// logical tensor named logical with the given full shape. It validates that
// the parameter's actual shape is exactly that slice and returns the
// parameter for chaining.
func (p *Param) MarkShard(logical string, axis int, fullShape []int, lo, hi int) *Param {
	if axis < 0 || axis >= len(fullShape) {
		panic(fmt.Sprintf("nn: MarkShard axis %d out of range for %v", axis, fullShape))
	}
	if lo < 0 || hi <= lo || hi > fullShape[axis] {
		panic(fmt.Sprintf("nn: MarkShard bounds [%d,%d) invalid for extent %d", lo, hi, fullShape[axis]))
	}
	if len(p.W.Shape) != len(fullShape) {
		panic(fmt.Sprintf("nn: MarkShard rank mismatch: param %v vs logical %v", p.W.Shape, fullShape))
	}
	for i, d := range fullShape {
		want := d
		if i == axis {
			want = hi - lo
		}
		if p.W.Shape[i] != want {
			panic(fmt.Sprintf("nn: MarkShard param %q shape %v is not the [%d,%d) slice of %v along axis %d",
				p.Name, p.W.Shape, lo, hi, fullShape, axis))
		}
	}
	p.Shard = &ShardInfo{
		Logical: logical, Axis: axis,
		FullShape: append([]int(nil), fullShape...),
		Lo:        lo, Hi: hi,
	}
	return p
}

// LogicalKey returns the name of the logical tensor this parameter belongs
// to: the shard's logical name when sharded, the parameter name otherwise.
func (p *Param) LogicalKey() string {
	if p.Shard != nil {
		return p.Shard.Logical
	}
	return p.Name
}

// FullShape returns the logical tensor's shape: the shard's full shape when
// sharded, W's shape otherwise.
func (p *Param) FullShape() []int {
	if p.Shard != nil {
		return p.Shard.FullShape
	}
	return p.W.Shape
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Numel returns the number of scalar values in the parameter.
func (p *Param) Numel() int { return p.W.Numel() }

// Layer is the single-input module contract. Forward must be called before
// Backward; Backward returns the gradient with respect to the forward input
// and accumulates parameter gradients.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Inferencer is the optional no-grad fast path of a Layer: Infer computes
// exactly Forward's output — bit for bit — without caching the activations
// Backward would need. Serving and evaluation call it through nn.Infer so
// layers without a fast path still work (their Forward caches are simply
// overwritten and never consumed).
type Inferencer interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
}

// Infer runs l's inference fast path when it has one, falling back to
// Forward. Under the default F64 inference dtype the output is bitwise
// identical either way; only the activation caching differs. Under
// SetInferDType(F32) the matrix products run in float32 and the output
// differs from Forward by the tolerance contract documented in DESIGN.md.
func Infer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	if in, ok := l.(Inferencer); ok {
		return in.Infer(x)
	}
	return l.Forward(x)
}

// DTyper is implemented by layers whose no-grad Infer path has a selectable
// arithmetic (see tensor.DType). SetInferDType(F32) additionally prepacks
// weights for the float32 kernels; it must be called again after the
// weights change.
type DTyper interface {
	SetInferDType(tensor.DType)
}

// SetInferDType applies dt to l when it implements DTyper; layers without a
// dtype switch (layer norms, activations) are left on float64.
func SetInferDType(l Layer, dt tensor.DType) {
	if d, ok := l.(DTyper); ok {
		d.SetInferDType(dt)
	}
}

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// NumParams sums the scalar count over ps.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Numel()
	}
	return n
}

// ParamsEqual reports whether two parameter lists hold identical values in
// the same order (names and tensors), within tol.
func ParamsEqual(a, b []*Param, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !tensor.EqualApprox(a[i].W, b[i].W, tol) {
			return false
		}
	}
	return true
}

// SubSeed derives a deterministic per-component seed from a base seed and a
// component index, so sharded layers reproduce the serial layer's exact
// initialization regardless of how the shards are constructed.
func SubSeed(seed int64, idx int) int64 {
	// SplitMix64-style mixing keeps nearby (seed, idx) pairs uncorrelated.
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// foldInto folds all leading dimensions of x into one without allocating: it
// points the layer-owned header hdr (created on first use) at x's data as
// [rows, last].
//
// dchag:hotpath — every projection call, forward, eval and backward.
func foldInto(hdr, x *tensor.Tensor) *tensor.Tensor {
	if hdr == nil {
		hdr = &tensor.Tensor{}
	}
	last := x.Shape[len(x.Shape)-1]
	hdr.Shape = append(hdr.Shape[:0], len(x.Data)/last, last)
	hdr.Data = x.Data
	return hdr
}

// unfoldLike gives the layer-owned y [rows, last] the leading dimensions of
// like in place and returns it: the inverse of the fold for a layer's output.
//
// dchag:hotpath — every projection call, forward, eval and backward.
func unfoldLike(y, like *tensor.Tensor, last int) *tensor.Tensor {
	y.Shape = append(append(y.Shape[:0], like.Shape[:len(like.Shape)-1]...), last)
	return y
}

func mustLastDim(op string, x *tensor.Tensor, want int) {
	if got := x.Shape[len(x.Shape)-1]; got != want {
		panic(fmt.Sprintf("nn: %s expected last dim %d, got shape %v", op, want, x.Shape))
	}
}
