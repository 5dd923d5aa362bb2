// Package tensor implements dense, row-major, float64 tensors together with
// the linear-algebra primitives the rest of the repository is built on:
// goroutine-parallel matrix multiplication, batched products, elementwise
// arithmetic, reductions, and shape manipulation.
//
// The package is deliberately small and deterministic. All state lives in
// exported Shape/Data fields so that the communication layer can ship raw
// buffers between simulated ranks without reflection, and so tests can
// construct exact fixtures. Float64 is used throughout: the functional layer
// of this repository validates distributed-equals-serial equivalence to
// 1e-9, which float32 cannot support.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major array of float64 values. The zero value is not
// usable; construct tensors with New, FromSlice, or the random
// initializers in random.go.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data holds the elements in row-major order. len(Data) equals the
	// product of Shape.
	Data []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative or if the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// Ones returns a tensor with every element set to one.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it unless that sharing is
// intended. It panics if len(data) does not match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (want %d)", len(data), append([]int(nil), shape...), n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// checkShape validates a shape and returns its element count; it panics on
// an empty shape, a negative extent and a count that overflows int.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Copy shape into the panic message so the parameter does not
			// escape (which would heap-allocate callers' variadic slices).
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		if d > 0 && n > math.MaxInt/d {
			// A wrapped count could match a short data slice and pass for a
			// tensor whose shape promises elements it does not hold.
			panic(fmt.Sprintf("tensor: shape %v has more elements than an int counts", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Numel returns the number of elements in the tensor.
func (t *Tensor) Numel() int { return len(t.Data) }

// offset computes the flat offset of a multi-index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor that shares t's data with a new shape. One
// dimension may be -1, in which case it is inferred. It panics if the
// element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
			continue
		}
		if d < 0 {
			panic(fmt.Sprintf("tensor: Reshape negative dimension in %v", shape))
		}
		known *= d
	}
	if infer >= 0 {
		if known == 0 || t.Numel()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer -1 in Reshape %v from %d elements", shape, t.Numel()))
		}
		shape[infer] = t.Numel() / known
		known *= shape[infer]
	}
	if known != t.Numel() {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, t.Numel()))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// Zero sets every element to zero in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether a and b have the same shape and all elements
// within tol of each other (absolute difference).
func EqualApprox(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b. It panics on shape mismatch.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// String renders a compact description (shape plus leading elements), not
// the full contents, so accidental prints of large tensors stay readable.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.Shape)
	n := len(t.Data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if n > show {
		fmt.Fprintf(&b, ", ... (%d elems)", n)
	}
	b.WriteString("]")
	return b.String()
}
