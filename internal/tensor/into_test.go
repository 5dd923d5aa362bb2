package tensor

import (
	"math"
	"testing"
)

// fuzzShapes are matrix extents chosen to cross every tiling boundary: the
// micro-tile (4/8/16), the cache blocks (128/256/512), the stack-vs-pooled
// panel threshold, and ragged edges of each.
var fuzzShapes = []int{1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 64, 65, 70, 129}

// fill populates t with a deterministic non-uniform pattern.
func fill(t *Tensor, seed float64) {
	for i := range t.Data {
		t.Data[i] = math.Sin(seed + float64(i)*0.7)
	}
}

// dirty returns a dst tensor pre-filled with garbage, to prove Into kernels
// fully overwrite their destination.
func dirty(shape ...int) *Tensor {
	d := New(shape...)
	for i := range d.Data {
		d.Data[i] = math.NaN()
	}
	return d
}

func assertBitwise(t *testing.T, op string, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", op, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] && !(math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i])) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", op, i, got.Data[i], want.Data[i])
		}
	}
}

// TestIntoBitwiseEqualsAllocating pins XInto(dst, ...) with a reused dirty
// destination bitwise-equal to XInto(nil, ...) allocating its own, for every
// matrix-product kernel across shapes that cross the tile and block edges.
func TestIntoBitwiseEqualsAllocating(t *testing.T) {
	for _, m := range fuzzShapes {
		for _, k := range fuzzShapes {
			for _, n := range fuzzShapes {
				if m*k*n > 1<<18 { // keep the cube affordable
					continue
				}
				a := New(m, k)
				b := New(k, n)
				fill(a, float64(m))
				fill(b, float64(n)+0.3)
				assertBitwise(t, "MatMulInto", MatMulInto(dirty(m, n), a, b), MatMulInto(nil, a, b))

				bt := New(n, k)
				fill(bt, float64(n)+0.3)
				assertBitwise(t, "MatMulTInto", MatMulTInto(dirty(m, n), a, bt), MatMulTInto(nil, a, bt))

				at := New(k, m)
				fill(at, float64(m))
				assertBitwise(t, "TMatMulInto", TMatMulInto(dirty(m, n), at, b), TMatMulInto(nil, at, b))
			}
		}
	}
}

// TestBatchedBitwiseEqualsPerMatrix pins every batched product over
// contiguous views bitwise-equal to the rank-2 product of each batch member,
// with a dirty destination.
func TestBatchedBitwiseEqualsPerMatrix(t *testing.T) {
	for _, sh := range [][3]int{{3, 5, 7}, {16, 16, 8}, {9, 33, 17}, {2, 65, 12}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(2, 3, m, k), New(2, 3, k, n)
		bt, at := New(2, 3, n, k), New(2, 3, k, m)
		fill(a, 1.1)
		fill(b, 2.2)
		fill(bt, 3.3)
		fill(at, 4.4)
		member := func(x *Tensor, bi int) *Tensor {
			r, c := x.Shape[2], x.Shape[3]
			return FromSlice(x.Data[bi*r*c:(bi+1)*r*c], r, c)
		}
		for _, tc := range []struct {
			op      string
			batched func(dst, a, b View, alpha float64)
			single  func(dst, a, b *Tensor) *Tensor
			a, b    *Tensor
		}{
			{"BatchedMatMulInto", BatchedMatMulInto, MatMulInto, a, b},
			{"BatchedMatMulTInto", BatchedMatMulTInto, MatMulTInto, a, bt},
			{"BatchedTMatMulInto", BatchedTMatMulInto, TMatMulInto, at, b},
			{"BatchedMatMulF32Into", BatchedMatMulF32Into, MatMulF32Into, a, b},
		} {
			got := dirty(2, 3, m, n)
			tc.batched(MatView(got), MatView(tc.a), MatView(tc.b), 1)
			for bi := 0; bi < 6; bi++ {
				assertBitwise(t, tc.op, member(got, bi), tc.single(nil, member(tc.a, bi), member(tc.b, bi)))
			}
		}
	}
}

// TestIntoBitwiseElementwise pins the elementwise/reduction/shape Into
// kernels bitwise-equal to their allocating forms.
func TestIntoBitwiseElementwise(t *testing.T) {
	a := New(7, 33)
	b := New(7, 33)
	fill(a, 0.1)
	fill(b, 0.9)
	assertBitwise(t, "AddInto", AddInto(dirty(7, 33), a, b), Add(a, b))
	assertBitwise(t, "SubInto", SubInto(dirty(7, 33), a, b), SubInto(nil, a, b))
	assertBitwise(t, "ScaleInto", ScaleInto(dirty(7, 33), a, 1.7), ScaleInto(nil, a, 1.7))
	assertBitwise(t, "SoftmaxLastDimInto", SoftmaxLastDimInto(dirty(7, 33), a), SoftmaxLastDimInto(nil, a))
	y := SoftmaxLastDimInto(nil, a)
	assertBitwise(t, "SoftmaxBackwardLastDimInto", SoftmaxBackwardLastDimInto(dirty(7, 33), y, b), SoftmaxBackwardLastDimInto(nil, y, b))
	assertBitwise(t, "SumAxisInto", SumAxisInto(dirty(33), a, 0), SumAxisInto(nil, a, 0))
	assertBitwise(t, "Transpose2DInto", Transpose2DInto(dirty(33, 7), a), Transpose2D(a))
	assertBitwise(t, "ConcatInto", ConcatInto(dirty(14, 33), 0, a, b), Concat(0, a, b))
	assertBitwise(t, "StackInto", StackInto(dirty(2, 7, 33), a, b), Stack(a, b))
	assertBitwise(t, "SliceAxisInto", SliceAxisInto(dirty(7, 10), a, 1, 3, 13), SliceAxis(a, 1, 3, 13))
}

// TestIntoInPlaceAliasing checks that elementwise Into kernels accept
// dst aliasing an operand while matrix products reject it.
func TestIntoInPlaceAliasing(t *testing.T) {
	a := New(5, 5)
	b := New(5, 5)
	fill(a, 0.2)
	fill(b, 0.8)
	want := Add(a, b)
	got := a.Clone()
	AddInto(got, got, b)
	assertBitwise(t, "AddInto in place", got, want)

	sm := SoftmaxLastDimInto(nil, a)
	inplace := a.Clone()
	SoftmaxLastDimInto(inplace, inplace)
	assertBitwise(t, "SoftmaxLastDimInto in place", inplace, sm)

	assertPanics(t, func() { MatMulInto(a, a, b) })
	assertPanics(t, func() { MatMulTInto(b, a, b) })
	assertPanics(t, func() { TMatMulInto(a, a, b) })
}

// TestIntoShapeValidation checks that a wrongly-shaped dst panics rather
// than silently writing out of place.
func TestIntoShapeValidation(t *testing.T) {
	a := New(4, 6)
	b := New(6, 5)
	assertPanics(t, func() { MatMulInto(New(4, 4), a, b) })
	assertPanics(t, func() { AddInto(New(4, 5), a, a) })
	assertPanics(t, func() { TMatMulAccInto(nil, a, a) })
}

// TestTMatMulAccInto pins the accumulate variant: dst += a^T@b.
func TestTMatMulAccInto(t *testing.T) {
	for _, sh := range [][3]int{{6, 9, 5}, {33, 70, 17}, {64, 129, 64}} {
		k, m, n := sh[0], sh[1], sh[2]
		a := New(k, m)
		b := New(k, n)
		fill(a, 0.5)
		fill(b, 1.5)
		base := New(m, n)
		fill(base, 2.5)
		got := base.Clone()
		TMatMulAccInto(got, a, b)
		prod := TMatMulInto(nil, a, b)
		// Accumulating into a non-zero base folds the additions in a
		// different order than base + product, so compare to rounding.
		for i := range got.Data {
			want := base.Data[i] + prod.Data[i]
			if d := math.Abs(got.Data[i] - want); d > 1e-12*math.Sqrt(float64(k)) {
				t.Fatalf("TMatMulAccInto[%d] = %v, want %v (diff %g)", i, got.Data[i], want, d)
			}
		}
	}
}
