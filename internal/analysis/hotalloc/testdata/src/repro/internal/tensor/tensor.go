// Package tensor is a fixture stub; hotalloc matches by package path
// and function name only.
package tensor

// Tensor stands in for the real dense tensor.
type Tensor struct{ Data []float64 }

// New allocates a fresh tensor.
func New(shape ...int) *Tensor { return &Tensor{} }

// FromSlice wraps data in a fresh tensor.
func FromSlice(data []float64, shape ...int) *Tensor { return &Tensor{} }

// Clone copies the tensor.
func (t *Tensor) Clone() *Tensor { return &Tensor{} }

// ScaleInPlace does not allocate.
func ScaleInPlace(t *Tensor, s float64) {}

// AddInto writes a+b into dst, allocating only when dst is nil.
func AddInto(dst, a, b *Tensor) *Tensor { return dst }

// MatMulInto writes a@b into dst, allocating only when dst is nil.
func MatMulInto(dst, a, b *Tensor) *Tensor { return dst }

// EnsureShape reuses t when it already has the shape, else allocates.
func EnsureShape(t *Tensor, shape ...int) *Tensor { return t }

// Pool recycles tensors.
type Pool struct{}

// GetTensor returns a pooled tensor (contents dirty).
func (p *Pool) GetTensor(shape ...int) *Tensor { return &Tensor{} }

// PutTensor recycles t.
func (p *Pool) PutTensor(t *Tensor) {}

// DefaultPool is the process-wide pool.
var DefaultPool = &Pool{}
