// Package a exercises hotalloc: allocations inside dchag:hotpath
// functions fire; unannotated functions and in-place calls do not.
package a

import (
	"repro/internal/obs"
	"repro/internal/tensor"
)

// hot is the fixture's inner loop.
//
// dchag:hotpath
func hot(dst, src *tensor.Tensor, n int) {
	buf := make([]float64, n) // want `make call in dchag:hotpath function hot`
	_ = buf
	p := new(int) // want `new call in dchag:hotpath function hot`
	_ = p
	t := tensor.New(n)                    // want `tensor allocation New in dchag:hotpath function hot`
	_ = t.Clone()                         // want `tensor allocation Clone in dchag:hotpath function hot`
	_ = tensor.FromSlice([]float64{1}, 1) // want `tensor allocation FromSlice in dchag:hotpath function hot`
	tensor.ScaleInPlace(dst, 2)
	_ = tensor.AddInto(nil, dst, src)      // want `nil dst in AddInto call in dchag:hotpath function hot`
	_ = tensor.MatMulInto((nil), dst, src) // want `nil dst in MatMulInto call in dchag:hotpath function hot`
	//lint:ignore hotalloc the result buffer is the API; reuse is follow-up work
	out := tensor.New(n)
	_ = out
}

// hotOK uses only the sanctioned allocation-free API and stays silent.
//
// dchag:hotpath
func hotOK(dst, src, scratch *tensor.Tensor, n int) {
	scratch = tensor.EnsureShape(scratch, n)
	_ = tensor.AddInto(scratch, dst, src)
	_ = tensor.MatMulInto(dst, scratch, src)
	t := tensor.DefaultPool.GetTensor(n)
	tensor.DefaultPool.PutTensor(t)
}

// hotTraced is the instrumented hot loop: obs spans and instants are
// allocation-free record calls by contract, so a fully traced hotpath
// function over reused buffers stays silent.
//
// dchag:hotpath
func hotTraced(row *obs.Rank, dst, src, scratch *tensor.Tensor) {
	sp := row.Begin("forward", "train")
	_ = tensor.AddInto(scratch, dst, src)
	sp.EndBytes(64)
	row.Instant("step-done", "train")
	tensor.ScaleInPlace(dst, 2)
}

// hotTracedAlloc: a span does not excuse the allocation it wraps — the
// constructor inside the instrumented region still fires.
//
// dchag:hotpath
func hotTracedAlloc(row *obs.Rank, src *tensor.Tensor, n int) {
	sp := row.Begin("forward", "train")
	t := tensor.New(n) // want `tensor allocation New in dchag:hotpath function hotTracedAlloc`
	_ = t
	_ = tensor.AddInto(nil, src, src) // want `nil dst in AddInto call in dchag:hotpath function hotTracedAlloc`
	sp.End()
}

// cold has no annotation, so it may allocate freely — including nil-dst
// Into calls (that is what the allocating wrappers are).
func cold(n int) *tensor.Tensor {
	_ = make([]float64, n)
	_ = tensor.AddInto(nil, nil, nil)
	return tensor.New(n)
}
