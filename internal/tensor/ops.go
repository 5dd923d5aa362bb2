package tensor

import (
	"fmt"
	"math"
)

// Elementwise and reduction ops in destination-passing form. Every
// XInto(dst, ...) accepts dst == nil (allocate) or a tensor of the result
// shape (reuse; prior contents overwritten). Unlike the matrix products,
// elementwise Into kernels MAY alias dst with an operand — they process
// strictly element by element — so AddInto(a, a, b) is a valid in-place add.
// The allocating forms remain as thin wrappers.

// AddInto computes dst = a + b elementwise and returns dst.
//
// dchag:hotpath — residual adds run per block per step; with a non-nil dst
// it performs no heap allocation.
func AddInto(dst, a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	dst = ensureDst("AddInto", dst, a.Shape...)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Add returns a + b elementwise; the allocating wrapper over AddInto.
func Add(a, b *Tensor) *Tensor { return AddInto(nil, a, b) }

// SubInto computes dst = a - b elementwise and returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func SubInto(dst, a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	dst = ensureDst("SubInto", dst, a.Shape...)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// ScaleInto computes dst = a * s for scalar s and returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func ScaleInto(dst, a *Tensor, s float64) *Tensor {
	dst = ensureDst("ScaleInto", dst, a.Shape...)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * s
	}
	return dst
}

// AddInPlace accumulates b into a (a += b). Shapes must match.
//
// dchag:hotpath — gradient accumulation runs this every step; it must not
// allocate.
func AddInPlace(a, b *Tensor) {
	mustSameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AccumRows adds rows rows of src, ld apart, to dst, in ascending row order:
// dst[j] += src[r*ld+j] for r < rows and j < len(dst), or dst[j] +=
// float64(w[r]*src[r*ld+j]) — the product rounded, then added — when w is
// non-nil. The column sums of a bias gradient and the weighted channel sum of
// a linear aggregation are both this. Where the CPU has AVX2 it runs in
// assembly across the columns, each column keeping its row order, so the
// result is the Go twin's bit for bit. dst must not overlap src.
//
// dchag:hotpath — per-step gradient column sums; it must not allocate.
func AccumRows(dst, src []float64, ld, rows int, w []float64) {
	n := len(dst)
	if rows <= 0 || n == 0 {
		return
	}
	if ld < n || len(src) < (rows-1)*ld+n || (w != nil && len(w) < rows) {
		panic(fmt.Sprintf("tensor: AccumRows of %d rows, %d wide at stride %d, from %d values and %d weights", rows, n, ld, len(src), len(w)))
	}
	if overlaps(dst, src[:(rows-1)*ld+n]) {
		panic("tensor: AccumRows dst aliases src")
	}
	v := 0
	if useSIMD && n >= 4 {
		v = n &^ 3
		accumRowsAVX2(&dst[0], &src[0], ld, rows, v, first(w))
	}
	if v < n {
		accumRowsGo(dst[v:], src[v:], ld, rows, w)
	}
}

// accumRowsGo is AccumRows' Go twin. The conversion around the product keeps
// compilers that fuse multiply-add from contracting it into the add.
func accumRowsGo(dst, src []float64, ld, rows int, w []float64) {
	for r := 0; r < rows; r++ {
		row := src[r*ld:][:len(dst)]
		if w == nil {
			for j, v := range row {
				dst[j] += v
			}
			continue
		}
		wr := w[r]
		for j, v := range row {
			dst[j] += float64(wr * v)
		}
	}
}

// ScaleInPlace multiplies a by scalar s in place.
//
// dchag:hotpath — it must not allocate.
func ScaleInPlace(a *Tensor, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements. It panics on an empty
// tensor.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Mean of empty tensor")
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Norm2 returns the Euclidean (Frobenius) norm of the tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// sumAxisShape computes the result shape of a one-axis reduction.
func sumAxisShape(op string, t *Tensor, axis int) (int, []int) {
	if axis < 0 {
		axis += len(t.Shape)
	}
	if axis < 0 || axis >= len(t.Shape) {
		panic(fmt.Sprintf("tensor: %s axis out of range for shape %v", op, t.Shape))
	}
	outShape := make([]int, 0, len(t.Shape)-1)
	outShape = append(outShape, t.Shape[:axis]...)
	outShape = append(outShape, t.Shape[axis+1:]...)
	if len(outShape) == 0 {
		outShape = []int{1}
	}
	return axis, outShape
}

// SumAxisInto reduces over one axis (negative axes count from the end) into
// dst, whose rank is one less, and returns dst. dst must not alias t.
//
// dchag:hotpath — with a non-nil dst it allocates only the result-shape
// header on first use.
func SumAxisInto(dst, t *Tensor, axis int) *Tensor {
	axis, outShape := sumAxisShape("SumAxis", t, axis)
	dst = ensureDst("SumAxisInto", dst, outShape...)
	mustNotAlias("SumAxisInto", dst, t)
	dst.Zero()
	outer := 1
	for _, d := range t.Shape[:axis] {
		outer *= d
	}
	n := t.Shape[axis]
	inner := 1
	for _, d := range t.Shape[axis+1:] {
		inner *= d
	}
	for o := 0; o < outer; o++ {
		for k := 0; k < n; k++ {
			src := (o*n + k) * inner
			d := o * inner
			for i := 0; i < inner; i++ {
				dst.Data[d+i] += t.Data[src+i]
			}
		}
	}
	return dst
}

// SoftmaxLastDimInto computes softmax along the final dimension into dst and
// returns dst: per row, the maximum m, e^(x-m) through the Exp kernel, the
// sum, and a scale by its reciprocal. A row's result depends on that row's
// values and length only. dst may alias t for an in-place softmax; an empty
// tensor is left untouched.
//
// dchag:hotpath — attention runs this per head per step; with a non-nil dst
// it performs no heap allocation.
func SoftmaxLastDimInto(dst, t *Tensor) *Tensor {
	dst = ensureDst("SoftmaxLastDimInto", dst, t.Shape...)
	if t.Numel() == 0 {
		return dst
	}
	n := t.Shape[len(t.Shape)-1]
	if useSIMD {
		softmaxRowsAVX2(&dst.Data[0], &t.Data[0], t.Numel()/n, n)
	} else {
		softmaxRowsGo(dst.Data, t.Data, n)
	}
	return dst
}

// SoftmaxBackwardLastDimInto computes the gradient of a softmax (applied
// along the last dimension) given the softmax output y and upstream gradient
// gy: dx_i = y_i * (gy_i - sum_j gy_j y_j). dst may alias y or gy. It
// returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func SoftmaxBackwardLastDimInto(dst, y, gy *Tensor) *Tensor {
	mustSameShape("SoftmaxBackwardLastDim", y, gy)
	dst = ensureDst("SoftmaxBackwardLastDimInto", dst, y.Shape...)
	n := y.Shape[len(y.Shape)-1]
	rows := y.Numel() / n
	for r := 0; r < rows; r++ {
		yr := y.Data[r*n : (r+1)*n]
		gr := gy.Data[r*n : (r+1)*n]
		d := dst.Data[r*n : (r+1)*n]
		dot := 0.0
		for i := range yr {
			dot += yr[i] * gr[i]
		}
		for i := range yr {
			d[i] = yr[i] * (gr[i] - dot)
		}
	}
	return dst
}

// concatShape validates Concat operands and returns (axis, result shape).
func concatShape(axis int, ts []*Tensor) (int, []int) {
	if len(ts) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	first := ts[0]
	if axis < 0 {
		axis += len(first.Shape)
	}
	if axis < 0 || axis >= len(first.Shape) {
		panic(fmt.Sprintf("tensor: Concat axis out of range for shape %v", first.Shape))
	}
	total := 0
	for _, t := range ts {
		if len(t.Shape) != len(first.Shape) {
			panic("tensor: Concat rank mismatch")
		}
		for i := range t.Shape {
			if i != axis && t.Shape[i] != first.Shape[i] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v on axis %d", t.Shape, first.Shape, i))
			}
		}
		total += t.Shape[axis]
	}
	outShape := append([]int(nil), first.Shape...)
	outShape[axis] = total
	return axis, outShape
}

// ConcatInto joins tensors along the given axis into dst and returns dst.
// All inputs must agree on every other dimension; dst must not alias any
// input. Reshard and micro-batch assembly paths pass pooled destinations so
// steady-state assembly stops allocating.
//
// dchag:hotpath — with a non-nil dst it allocates only the shape header.
func ConcatInto(dst *Tensor, axis int, ts ...*Tensor) *Tensor {
	axis, outShape := concatShape(axis, ts)
	dst = ensureDst("ConcatInto", dst, outShape...)
	mustNotAlias("ConcatInto", dst, ts...)
	first := ts[0]
	outer := 1
	for _, d := range first.Shape[:axis] {
		outer *= d
	}
	inner := 1
	for _, d := range first.Shape[axis+1:] {
		inner *= d
	}
	outRow := outShape[axis] * inner
	off := 0
	for _, t := range ts {
		rows := t.Shape[axis] * inner
		for o := 0; o < outer; o++ {
			copy(dst.Data[o*outRow+off:o*outRow+off+rows], t.Data[o*rows:(o+1)*rows])
		}
		off += rows
	}
	return dst
}

// Concat joins tensors along the given axis; the allocating wrapper over
// ConcatInto.
func Concat(axis int, ts ...*Tensor) *Tensor { return ConcatInto(nil, axis, ts...) }

// Split partitions t into parts of the given sizes along axis. The sizes
// must sum to the axis extent. Each part is a fresh copy.
func Split(t *Tensor, axis int, sizes []int) []*Tensor {
	if axis < 0 {
		axis += len(t.Shape)
	}
	if axis < 0 || axis >= len(t.Shape) {
		panic(fmt.Sprintf("tensor: Split axis out of range for shape %v", t.Shape))
	}
	sum := 0
	for _, s := range sizes {
		if s < 0 {
			panic("tensor: Split negative size")
		}
		sum += s
	}
	if sum != t.Shape[axis] {
		panic(fmt.Sprintf("tensor: Split sizes %v do not sum to axis extent %d", sizes, t.Shape[axis]))
	}
	parts := make([]*Tensor, len(sizes))
	off := 0
	for p, s := range sizes {
		parts[p] = SliceAxisInto(nil, t, axis, off, off+s)
		off += s
	}
	return parts
}

// SplitEqual partitions t into n equal chunks along axis. The axis extent
// must be divisible by n.
func SplitEqual(t *Tensor, axis, n int) []*Tensor {
	if axis < 0 {
		axis += len(t.Shape)
	}
	if t.Shape[axis]%n != 0 {
		panic(fmt.Sprintf("tensor: SplitEqual axis extent %d not divisible by %d", t.Shape[axis], n))
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = t.Shape[axis] / n
	}
	return Split(t, axis, sizes)
}

// StackInto joins rank-k tensors of identical shape into dst, a rank-(k+1)
// tensor with a new leading axis, and returns dst. dst must not alias any
// input.
//
// dchag:hotpath — with a non-nil dst it allocates only the shape header.
func StackInto(dst *Tensor, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Stack of zero tensors")
	}
	for _, t := range ts[1:] {
		if !SameShape(ts[0], t) {
			panic("tensor: Stack shape mismatch")
		}
	}
	shape := append([]int{len(ts)}, ts[0].Shape...)
	dst = ensureDst("StackInto", dst, shape...)
	mustNotAlias("StackInto", dst, ts...)
	n := ts[0].Numel()
	for i, t := range ts {
		copy(dst.Data[i*n:(i+1)*n], t.Data)
	}
	return dst
}

// Stack joins rank-k tensors of identical shape into one rank-(k+1) tensor
// along a new leading axis; the allocating wrapper over StackInto.
func Stack(ts ...*Tensor) *Tensor { return StackInto(nil, ts...) }

// SliceAxisInto copies the [from, to) range of t along the given axis into
// dst and returns dst. dst must not alias t.
//
// dchag:hotpath — with a non-nil dst it allocates only the shape header.
func SliceAxisInto(dst, t *Tensor, axis, from, to int) *Tensor {
	if axis < 0 {
		axis += len(t.Shape)
	}
	if axis < 0 || axis >= len(t.Shape) {
		panic(fmt.Sprintf("tensor: SliceAxis axis out of range for shape %v", t.Shape))
	}
	if from < 0 || to > t.Shape[axis] || from > to {
		panic(fmt.Sprintf("tensor: SliceAxis bounds [%d,%d) invalid for extent %d", from, to, t.Shape[axis]))
	}
	outer := 1
	for _, d := range t.Shape[:axis] {
		outer *= d
	}
	inner := 1
	for _, d := range t.Shape[axis+1:] {
		inner *= d
	}
	shape := append([]int(nil), t.Shape...)
	shape[axis] = to - from
	dst = ensureDst("SliceAxisInto", dst, shape...)
	mustNotAlias("SliceAxisInto", dst, t)
	srcRow := t.Shape[axis] * inner
	rows := (to - from) * inner
	for o := 0; o < outer; o++ {
		copy(dst.Data[o*rows:(o+1)*rows], t.Data[o*srcRow+from*inner:o*srcRow+from*inner+rows])
	}
	return dst
}

// SliceAxis returns a copy of the [from, to) range of t along the given
// axis; the allocating wrapper over SliceAxisInto.
func SliceAxis(t *Tensor, axis, from, to int) *Tensor {
	return SliceAxisInto(nil, t, axis, from, to)
}

// SetSliceAxis writes src into the [from, from+src.Shape[axis]) range of dst
// along the given axis; the inverse of SliceAxis. All other dimensions of src
// must match dst.
//
// dchag:hotpath — scatter into a caller-owned buffer; it must not allocate.
func SetSliceAxis(dst *Tensor, axis, from int, src *Tensor) {
	if axis < 0 {
		axis += len(dst.Shape)
	}
	if axis < 0 || axis >= len(dst.Shape) {
		panic(fmt.Sprintf("tensor: SetSliceAxis axis out of range for shape %v", dst.Shape))
	}
	if len(src.Shape) != len(dst.Shape) {
		panic(fmt.Sprintf("tensor: SetSliceAxis rank mismatch %v vs %v", src.Shape, dst.Shape))
	}
	for i := range dst.Shape {
		if i != axis && src.Shape[i] != dst.Shape[i] {
			panic(fmt.Sprintf("tensor: SetSliceAxis shape mismatch %v vs %v on axis %d", src.Shape, dst.Shape, i))
		}
	}
	to := from + src.Shape[axis]
	if from < 0 || to > dst.Shape[axis] {
		panic(fmt.Sprintf("tensor: SetSliceAxis bounds [%d,%d) invalid for extent %d", from, to, dst.Shape[axis]))
	}
	outer := 1
	for _, d := range dst.Shape[:axis] {
		outer *= d
	}
	inner := 1
	for _, d := range dst.Shape[axis+1:] {
		inner *= d
	}
	dstRow := dst.Shape[axis] * inner
	rows := src.Shape[axis] * inner
	for o := 0; o < outer; o++ {
		copy(dst.Data[o*dstRow+from*inner:o*dstRow+from*inner+rows], src.Data[o*rows:(o+1)*rows])
	}
}

func mustSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
