package tensor

import (
	"math"
	"testing"
)

func TestDTypeString(t *testing.T) {
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Fatalf("DType strings: %q %q", F64, F32)
	}
}

// TestMatMulF32Tolerance pins the f32 compute path against f64 at the
// documented tolerance: relative error on the order of f32 epsilon scaled by
// sqrt(K) accumulation growth.
func TestMatMulF32Tolerance(t *testing.T) {
	for _, sh := range [][3]int{{5, 9, 11}, {33, 257, 70}, {64, 512, 96}, {130, 300, 513}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		b := New(k, n)
		fill(a, 0.7)
		fill(b, 1.9)
		f64 := MatMulInto(nil, a, b)
		f32got := MatMulF32Into(dirty(m, n), a, b)
		scale := 0.0
		for _, v := range f64.Data {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		tol := 1e-6 * math.Sqrt(float64(k)) * math.Max(scale, 1)
		if d := MaxAbsDiff(f64, f32got); d > tol {
			t.Fatalf("f32 [%d,%d,%d] differs from f64 by %g (tol %g)", m, k, n, d, tol)
		}
	}
}

// TestPackedF32MatchesUnpacked pins the prepacked-weights path bitwise
// against on-the-fly packing — they must run the identical kernel.
func TestPackedF32MatchesUnpacked(t *testing.T) {
	for _, sh := range [][3]int{{4, 8, 16}, {9, 33, 17}, {70, 300, 130}, {33, 513, 65}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		b := New(k, n)
		fill(a, 2.1)
		fill(b, 0.4)
		pb := PackB32(b)
		got := dirty(m, n)
		AffinePackedF32Into(got.Data, n, a, pb, Epilogue{})
		want := MatMulF32Into(nil, a, b)
		assertBitwise(t, "AffinePackedF32Into", got, want)
	}
}

// TestBatchedF32Tolerance covers the attention-shaped f32 products.
func TestBatchedF32Tolerance(t *testing.T) {
	const B, H, T, D = 2, 3, 16, 8
	q := New(B, H, T, D)
	kk := New(B, H, T, D)
	v := New(B, H, T, D)
	fill(q, 0.3)
	fill(kk, 1.3)
	fill(v, 2.3)
	scores64, scores32 := New(B, H, T, T), dirty(B, H, T, T)
	BatchedMatMulTInto(MatView(scores64), MatView(q), MatView(kk), 1)
	BatchedMatMulTF32Into(MatView(scores32), MatView(q), MatView(kk), 1)
	if d := MaxAbsDiff(scores64, scores32); d > 1e-4 {
		t.Fatalf("BatchedMatMulTF32 differs by %g", d)
	}
	ctx64, ctx32 := New(B, H, T, D), dirty(B, H, T, D)
	BatchedMatMulInto(MatView(ctx64), MatView(scores64), MatView(v), 1)
	BatchedMatMulF32Into(MatView(ctx32), MatView(scores64), MatView(v), 1)
	if d := MaxAbsDiff(ctx64, ctx32); d > 1e-4 {
		t.Fatalf("BatchedMatMulF32 differs by %g", d)
	}
}

// TestPackB32Stale documents the repack contract: a pack snapshots the
// weights, so mutating them afterwards must not change the packed product.
func TestPackB32Stale(t *testing.T) {
	b := New(40, 24)
	fill(b, 5.0)
	a := New(8, 40)
	fill(a, 6.0)
	pb := PackB32(b)
	before, after := New(8, 24), New(8, 24)
	AffinePackedF32Into(before.Data, 24, a, pb, Epilogue{})
	b.Fill(0)
	AffinePackedF32Into(after.Data, 24, a, pb, Epilogue{})
	assertBitwise(t, "PackB32 snapshot", after, before)
}
