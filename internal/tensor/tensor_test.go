package tensor

import (
	"math"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewShapeAndNumel(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Numel() != 24 {
		t.Fatalf("Numel = %d, want 24", tt.Numel())
	}
	if tt.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", tt.Rank())
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	assertPanics(t, func() { New() })
	assertPanics(t, func() { New(2, -1) })
}

// TestShapeCountOverflowPanics pins that an element count which wraps an int
// panics instead of passing for the small number it wraps to: 2^32 x 2^32
// wraps to 0, and used to build a tensor whose shape promised elements its
// empty Data did not hold.
func TestShapeCountOverflowPanics(t *testing.T) {
	const half = 1 << (strconv.IntSize / 2)
	assertPanics(t, func() { New(half, half) })
	assertPanics(t, func() { FromSlice(nil, 8, half, half) })
	if got := New(0, math.MaxInt).Numel(); got != 0 { // a zero extent counts nothing, whatever follows it
		t.Fatalf("New(0, MaxInt) holds %d elements", got)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3)
	tt.Set(7.5, 1, 2)
	if got := tt.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := tt.Data[1*3+2]; got != 7.5 {
		t.Fatalf("row-major layout violated: Data[5] = %v", got)
	}
	assertPanics(t, func() { tt.At(2, 0) })
	assertPanics(t, func() { tt.At(0) })
}

func TestDimNegativeIndex(t *testing.T) {
	tt := New(2, 3, 5)
	if tt.Dim(-1) != 5 || tt.Dim(-3) != 2 || tt.Dim(1) != 3 {
		t.Fatalf("Dim indexing wrong: %d %d %d", tt.Dim(-1), tt.Dim(-3), tt.Dim(1))
	}
	assertPanics(t, func() { tt.Dim(3) })
}

func TestFromSliceValidation(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	tt := FromSlice(d, 2, 3)
	if tt.At(1, 0) != 4 {
		t.Fatalf("At(1,0) = %v, want 4", tt.At(1, 0))
	}
	assertPanics(t, func() { FromSlice(d, 2, 2) })
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 1)
	if a.At(0, 1) != 42 {
		t.Fatal("Reshape must share storage")
	}
	c := a.Reshape(-1, 2)
	if c.Shape[0] != 3 {
		t.Fatalf("inferred dim = %d, want 3", c.Shape[0])
	}
	assertPanics(t, func() { a.Reshape(4, 2) })
	assertPanics(t, func() { a.Reshape(-1, -1) })
	assertPanics(t, func() { a.Reshape(-1, 4) })
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data[3]; got != 44 {
		t.Fatalf("Add = %v, want 44", got)
	}
	if got := SubInto(nil, b, a).Data[0]; got != 9 {
		t.Fatalf("Sub = %v, want 9", got)
	}
	if got := ScaleInto(nil, a, 2).Data[3]; got != 8 {
		t.Fatalf("Scale = %v, want 8", got)
	}
	assertPanics(t, func() { Add(a, New(3, 3)) })
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 5}, 2)
	AddInPlace(a, b)
	if a.Data[1] != 7 {
		t.Fatalf("AddInPlace = %v, want 7", a.Data[1])
	}
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 2 {
		t.Fatalf("ScaleInPlace = %v, want 2", a.Data[0])
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3, -4}, 4)
	if a.Sum() != -2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != -0.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Max() != 3 || a.Min() != -4 {
		t.Fatalf("Max/Min = %v/%v", a.Max(), a.Min())
	}
	if math.Abs(a.Norm2()-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("Norm2 = %v", a.Norm2())
	}
}

func TestSumAxis(t *testing.T) {
	// [[1,2,3],[4,5,6]]
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s0 := SumAxisInto(nil, a, 0)
	want0 := []float64{5, 7, 9}
	for i, w := range want0 {
		if s0.Data[i] != w {
			t.Fatalf("SumAxis(0)[%d] = %v, want %v", i, s0.Data[i], w)
		}
	}
	s1 := SumAxisInto(nil, a, 1)
	if s1.Data[0] != 6 || s1.Data[1] != 15 {
		t.Fatalf("SumAxis(1) = %v", s1.Data)
	}
	sneg := SumAxisInto(nil, a, -1)
	if !EqualApprox(s1, sneg, 0) {
		t.Fatal("negative axis mismatch")
	}
}

func TestSumAxisMiddle(t *testing.T) {
	a := New(2, 3, 4)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	s := SumAxisInto(nil, a, 1)
	if len(s.Shape) != 2 || s.Shape[0] != 2 || s.Shape[1] != 4 {
		t.Fatalf("shape = %v", s.Shape)
	}
	// element [0,0] = a[0,0,0]+a[0,1,0]+a[0,2,0] = 0+4+8
	if s.At(0, 0) != 12 {
		t.Fatalf("SumAxis middle = %v, want 12", s.At(0, 0))
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMulInto(nil, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
	assertPanics(t, func() { MatMulInto(nil, a, a) })
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(1)
	// Large enough to trigger the parallel path.
	a := Randn(rng, 128, 96)
	b := Randn(rng, 96, 64)
	got := MatMulInto(nil, a, b)
	// The blocked kernel's per-element summation order is independent of the
	// worker split, so the product must be bitwise stable across GOMAXPROCS.
	prev := runtime.GOMAXPROCS(1)
	serial := MatMulInto(nil, a, b)
	runtime.GOMAXPROCS(prev)
	if MaxAbsDiff(got, serial) != 0 {
		t.Fatal("parallel MatMul differs from serial")
	}
	// And it must agree with the naive oracle to rounding error (bitwise
	// equality is NOT expected: the blocked kernel uses FMA).
	am := &matBatch{t: a, n: 1, h: 1, rows: 128, cols: 96}
	bm := &matBatch{t: b, n: 1, h: 1, rows: 96, cols: 64}
	naive := FromSlice(oracle(nil, am, bm, 128, 96, 64, false, false, false, 1, Epilogue{})[0], 128, 64)
	if MaxAbsDiff(got, naive) > 1e-9 {
		t.Fatalf("blocked MatMul differs from naive reference by %g", MaxAbsDiff(got, naive))
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	rng := NewRNG(2)
	a := Randn(rng, 17, 9)
	b := Randn(rng, 13, 9)
	got := MatMulTInto(nil, a, b)
	want := MatMulInto(nil, a, Transpose2D(b))
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatal("MatMulT differs from explicit transpose")
	}
	c := Randn(rng, 9, 17)
	d := Randn(rng, 9, 13)
	got2 := TMatMulInto(nil, c, d)
	want2 := MatMulInto(nil, Transpose2D(c), d)
	if MaxAbsDiff(got2, want2) > 1e-12 {
		t.Fatal("TMatMul differs from explicit transpose")
	}
}

func TestBatchedMatMul(t *testing.T) {
	rng := NewRNG(3)
	a := Randn(rng, 2, 3, 4, 5)
	b := Randn(rng, 2, 3, 5, 6)
	c := New(2, 3, 4, 6)
	BatchedMatMulInto(MatView(c), MatView(a), MatView(b), 1)
	if c.Shape[0] != 2 || c.Shape[1] != 3 || c.Shape[2] != 4 || c.Shape[3] != 6 {
		t.Fatalf("shape = %v", c.Shape)
	}
	// Check one batch against 2D MatMul.
	a0 := FromSlice(a.Data[0:20], 4, 5)
	b0 := FromSlice(b.Data[0:30], 5, 6)
	w := MatMulInto(nil, a0, b0)
	for i := 0; i < 24; i++ {
		if math.Abs(c.Data[i]-w.Data[i]) > 1e-12 {
			t.Fatalf("batch 0 elem %d mismatch", i)
		}
	}
}

func TestBatchedMatMulTAndTMatMul(t *testing.T) {
	rng := NewRNG(4)
	a := Randn(rng, 3, 4, 5)
	b := Randn(rng, 3, 6, 5)
	got := New(3, 4, 6)
	BatchedMatMulTInto(MatView(got), MatView(a), MatView(b), 1)
	// manual: per batch a@b^T
	for bi := 0; bi < 3; bi++ {
		am := FromSlice(a.Data[bi*20:(bi+1)*20], 4, 5)
		bm := FromSlice(b.Data[bi*30:(bi+1)*30], 6, 5)
		w := MatMulInto(nil, am, Transpose2D(bm))
		for i := 0; i < 24; i++ {
			if math.Abs(got.Data[bi*24+i]-w.Data[i]) > 1e-12 {
				t.Fatalf("BatchedMatMulT batch %d mismatch", bi)
			}
		}
	}
	c := Randn(rng, 3, 5, 4)
	d := Randn(rng, 3, 5, 6)
	got2 := New(3, 4, 6)
	BatchedTMatMulInto(MatView(got2), MatView(c), MatView(d), 1)
	for bi := 0; bi < 3; bi++ {
		cm := FromSlice(c.Data[bi*20:(bi+1)*20], 5, 4)
		dm := FromSlice(d.Data[bi*30:(bi+1)*30], 5, 6)
		w := MatMulInto(nil, Transpose2D(cm), dm)
		for i := 0; i < 24; i++ {
			if math.Abs(got2.Data[bi*24+i]-w.Data[i]) > 1e-12 {
				t.Fatalf("BatchedTMatMul batch %d mismatch", bi)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + int(rng.Int31n(8))
		n := 1 + int(rng.Int31n(8))
		a := Randn(rng, m, n)
		return MaxAbsDiff(Transpose2D(Transpose2D(a)), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := 1 + int(rng.Int31n(6))
		n := 1 + int(rng.Int31n(6))
		a := Randn(rng, m, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		return MaxAbsDiff(MatMulInto(nil, a, id), a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		r := 1 + int(rng.Int31n(5))
		c := 1 + int(rng.Int31n(7))
		a := RandnScaled(rng, 10, r, c) // large magnitudes stress stability
		s := SoftmaxLastDimInto(nil, a)
		for i := 0; i < r; i++ {
			sum := 0.0
			for j := 0; j < c; j++ {
				v := s.At(i, j)
				if v < 0 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxBackwardFiniteDifference(t *testing.T) {
	rng := NewRNG(7)
	x := Randn(rng, 3, 5)
	gy := Randn(rng, 3, 5)
	y := SoftmaxLastDimInto(nil, x)
	gx := SoftmaxBackwardLastDimInto(nil, y, gy)
	const eps = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := dot(SoftmaxLastDimInto(nil, x), gy)
		x.Data[i] = orig - eps
		lm := dot(SoftmaxLastDimInto(nil, x), gy)
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-gx.Data[i]) > 1e-6 {
			t.Fatalf("softmax grad mismatch at %d: numeric %v analytic %v", i, numeric, gx.Data[i])
		}
	}
}

func dot(a, b *Tensor) float64 {
	s := 0.0
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := NewRNG(8)
	a := Randn(rng, 2, 3, 4)
	b := Randn(rng, 2, 5, 4)
	c := Randn(rng, 2, 1, 4)
	joined := Concat(1, a, b, c)
	if joined.Shape[1] != 9 {
		t.Fatalf("Concat shape = %v", joined.Shape)
	}
	parts := Split(joined, 1, []int{3, 5, 1})
	if MaxAbsDiff(parts[0], a) != 0 || MaxAbsDiff(parts[1], b) != 0 || MaxAbsDiff(parts[2], c) != 0 {
		t.Fatal("Split does not invert Concat")
	}
}

func TestConcatAxis0AndLast(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	b := FromSlice([]float64{3, 4}, 1, 2)
	c0 := Concat(0, a, b)
	if c0.Shape[0] != 2 || c0.Data[2] != 3 {
		t.Fatalf("Concat axis 0 = %v %v", c0.Shape, c0.Data)
	}
	c1 := Concat(-1, a, b)
	want := []float64{1, 2, 3, 4}
	for i, w := range want {
		if c1.Data[i] != w {
			t.Fatalf("Concat axis -1 = %v", c1.Data)
		}
	}
}

func TestSplitEqual(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 6)
	parts := SplitEqual(a, 0, 3)
	if len(parts) != 3 || parts[1].Data[0] != 3 {
		t.Fatalf("SplitEqual = %v", parts)
	}
	assertPanics(t, func() { SplitEqual(a, 0, 4) })
}

func TestStack(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	s := Stack(a, b)
	if s.Shape[0] != 2 || s.Shape[1] != 2 || s.At(1, 0) != 3 {
		t.Fatalf("Stack = %v %v", s.Shape, s.Data)
	}
	assertPanics(t, func() { Stack(a, FromSlice([]float64{1, 2, 3}, 3)) })
}

func TestSliceAxis(t *testing.T) {
	a := New(2, 4, 3)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	s := SliceAxis(a, 1, 1, 3)
	if s.Shape[1] != 2 {
		t.Fatalf("shape = %v", s.Shape)
	}
	if s.At(0, 0, 0) != a.At(0, 1, 0) || s.At(1, 1, 2) != a.At(1, 2, 2) {
		t.Fatal("SliceAxis content wrong")
	}
	assertPanics(t, func() { SliceAxis(a, 1, 3, 5) })
}

func TestSliceConcatRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 2 + int(rng.Int31n(6))
		a := Randn(rng, 3, n, 2)
		cut := 1 + int(rng.Int31n(int32(n-1)))
		left := SliceAxis(a, 1, 0, cut)
		right := SliceAxis(a, 1, cut, n)
		return MaxAbsDiff(Concat(1, left, right), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualApproxAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0001}, 2)
	if !EqualApprox(a, b, 1e-3) {
		t.Fatal("EqualApprox should accept within tol")
	}
	if EqualApprox(a, b, 1e-6) {
		t.Fatal("EqualApprox should reject beyond tol")
	}
	if EqualApprox(a, New(3), 1) {
		t.Fatal("EqualApprox should reject shape mismatch")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.0001) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := Randn(NewRNG(42), 4, 4)
	b := Randn(NewRNG(42), 4, 4)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed must produce same tensor")
	}
	c := Randn(NewRNG(43), 4, 4)
	if MaxAbsDiff(a, c) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestXavierBounds(t *testing.T) {
	w := XavierUniform(NewRNG(1), 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range w.Data {
		if v < -limit || v >= limit {
			t.Fatalf("Xavier sample %v outside [-%v, %v)", v, limit, limit)
		}
	}
}

func TestStringTruncates(t *testing.T) {
	a := New(100)
	s := a.String()
	if len(s) > 200 {
		t.Fatalf("String too long: %q", s)
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	a.CopyFrom(b)
	if a.At(1, 1) != 4 {
		t.Fatal("CopyFrom failed")
	}
	assertPanics(t, func() { a.CopyFrom(New(3)) })
}

func TestZeroAndFill(t *testing.T) {
	a := Full(5, 3)
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	a.Fill(2)
	if a.Sum() != 6 {
		t.Fatal("Fill failed")
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestOnes(t *testing.T) {
	o := Ones(2, 3)
	if o.Sum() != 6 {
		t.Fatal("Ones must be one")
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	empty := New(0)
	assertPanics(t, func() { empty.Mean() })
	assertPanics(t, func() { empty.Max() })
	assertPanics(t, func() { empty.Min() })
}

func TestBatchedMatMulParallelPath(t *testing.T) {
	// Large enough batch*work to exercise the goroutine-parallel path; the
	// result must match per-batch serial 2D multiplication exactly.
	rng := NewRNG(99)
	a := Randn(rng, 32, 24, 24)
	b := Randn(rng, 32, 24, 24)
	c := New(32, 24, 24)
	BatchedMatMulInto(MatView(c), MatView(a), MatView(b), 1)
	for bi := 0; bi < 32; bi += 7 {
		am := FromSlice(a.Data[bi*24*24:(bi+1)*24*24], 24, 24)
		bm := FromSlice(b.Data[bi*24*24:(bi+1)*24*24], 24, 24)
		w := MatMulInto(nil, am, bm)
		cm := FromSlice(c.Data[bi*24*24:(bi+1)*24*24], 24, 24)
		if MaxAbsDiff(cm, w) > 1e-12 {
			t.Fatalf("batch %d mismatch in parallel path", bi)
		}
	}
}

func TestSetSliceAxisInvertsSliceAxis(t *testing.T) {
	rng := NewRNG(9)
	src := Randn(rng, 3, 6, 2)
	dst := New(3, 6, 2)
	for _, bounds := range [][2]int{{0, 2}, {2, 5}, {5, 6}} {
		part := SliceAxis(src, 1, bounds[0], bounds[1])
		SetSliceAxis(dst, 1, bounds[0], part)
	}
	if MaxAbsDiff(src, dst) != 0 {
		t.Fatal("tiling SetSliceAxis with SliceAxis pieces must reproduce the source")
	}
}

func TestSetSliceAxisValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { SetSliceAxis(New(2, 2), 0, 1, New(2, 2)) }, // out of bounds
		func() { SetSliceAxis(New(2, 2), 0, 0, New(1, 3)) }, // off-axis mismatch
		func() { SetSliceAxis(New(2, 2), 2, 0, New(2, 2)) }, // axis range
		func() { SetSliceAxis(New(2, 2), 0, 0, New(2)) },    // rank mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid SetSliceAxis must panic")
				}
			}()
			bad()
		}()
	}
}
