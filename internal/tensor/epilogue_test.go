package tensor

import (
	"math"
	"runtime"
	"testing"
)

// The composition the epilogue replaced, kept as its oracle: a product, then
// nn.Linear's bias pass, then the residual AddInto of a block — each loop as
// it stood before the adds moved into the kernels' store.

// parentAddBias is nn.Linear.addBias over a [rows, out] matrix y.
func parentAddBias(y []float64, rows, out int, bias []float64) {
	for i := 0; i < rows; i++ {
		row := y[i*out : (i+1)*out]
		for j, bv := range bias {
			row[j] += bv
		}
	}
}

// parentAddInto is AddInto's loop: dst = a + b.
func parentAddInto(dst, a, b []float64) {
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// unfusedEpilogue applies ep to the m x n product in c (rows ldc apart) the
// way the parent composed it: the bias pass, then the residual add.
func unfusedEpilogue(c []float64, m, n, ldc int, ep Epilogue) {
	for i := 0; i < m; i++ {
		row := c[i*ldc:][:n]
		if ep.Bias != nil {
			parentAddBias(row, 1, n, ep.Bias)
		}
		if ep.Res != nil {
			parentAddInto(row, ep.Res[i*ep.ResLd:][:n], row)
		}
	}
}

// fusedEntry is one way of issuing a product with an epilogue: the public
// entries and the driver's arithmetic-generic core (float32 with B packed
// per call, and accumulation, which no public entry pairs with an
// epilogue). It writes the m x n result at rows ldc apart.
type fusedEntry struct {
	name string
	run  func(dst []float64, ldc int, x, w *Tensor, ep Epilogue)
}

var fusedEntries = []fusedEntry{
	{name: "AffineInto", run: func(dst []float64, ldc int, x, w *Tensor, ep Epilogue) {
		AffineInto(dst, ldc, x, w, false, ep)
	}},
	{name: "AffineInto^T", run: func(dst []float64, ldc int, x, w *Tensor, ep Epilogue) {
		AffineInto(dst, ldc, x, Transpose2D(w), true, ep)
	}},
	{name: "AffinePackedF32Into", run: func(dst []float64, ldc int, x, w *Tensor, ep Epilogue) {
		AffinePackedF32Into(dst, ldc, x, PackB32(w), ep)
	}},
	{name: "AffineColumnInto", run: func(dst []float64, ldc int, x, w *Tensor, ep Epilogue) {
		AffineColumnInto(dst, ldc, asColumn(x, 1, 3), 1, w, false, ep)
	}},
	{name: "gemm2D[float32]", run: func(dst []float64, ldc int, x, w *Tensor, ep Epilogue) {
		gemm2D[float32](&gemmSpec{m: x.Shape[0], k: x.Shape[1], n: w.Shape[1], a: x.Data, b: w.Data, c: dst,
			lda: x.Shape[1], ldb: w.Shape[1], ldc: ldc, alpha: 1, ep: ep}, nil)
	}},
	{name: "gemm2D[float64] accumulate", run: func(dst []float64, ldc int, x, w *Tensor, ep Epilogue) {
		gemm2D[float64](&gemmSpec{m: x.Shape[0], k: x.Shape[1], n: w.Shape[1], a: x.Data, b: w.Data, c: dst,
			lda: x.Shape[1], ldb: w.Shape[1], ldc: ldc, accum: true, alpha: 0.35, ep: ep}, nil)
	}},
}

// TestEpilogueEqualsUnfusedBitwise holds every fused product to the product
// without an epilogue followed by the parent's bias and residual passes, bit
// for bit: float64, float32 packed per call and prepacked, accumulation,
// rows and columns ragged against the 4-row tile and the 8- and 16-wide
// panels, depths of 0, 1 and either side of kc (the epilogue rides the last
// block's store only), bias only, a residual of one row and of many, both,
// contiguous and strided destinations, under every kernel tier — and a
// product large enough to split its rows at GOMAXPROCS 2, whose second half
// must find its residual rows where the first half left off.
func TestEpilogueEqualsUnfusedBitwise(t *testing.T) {
	kinds := []epilogueKind{epBias, epRow, epRows, epBiasRow, epBoth}
	check := func(t *testing.T, e fusedEntry, m, k, n, ldc int, kind epilogueKind) {
		t.Helper()
		x, w := New(m, k), New(k, n)
		fill(x, float64(m)+0.3)
		fill(w, float64(n)+0.1)
		ep := kind.epilogue(m, n, heapFloats)
		got, want := make([]float64, (m-1)*ldc+n), make([]float64, (m-1)*ldc+n)
		fillSlice(got, 2.5)
		fillSlice(want, 2.5)
		e.run(got, ldc, x, w, ep)
		e.run(want, ldc, x, w, Epilogue{})
		unfusedEpilogue(want, m, n, ldc, ep)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s [%d,%d,%d] ldc=%d epilogue=%d kernel=%s: element %d (row %d) = %v, unfused %v",
					e.name, m, k, n, ldc, kind, KernelTier(), i, i/ldc, got[i], want[i])
			}
		}
	}
	withEveryTier(t, func(t *testing.T) {
		for _, e := range fusedEntries {
			for _, m := range []int{1, 3, 8, 13} {
				for _, n := range []int{5, 16, 24, 33} {
					for _, k := range []int{0, 1, 255, 256, 257, 600} {
						for _, kind := range kinds {
							for _, ldc := range []int{n, n + 5} {
								check(t, e, m, k, n, ldc, kind)
							}
						}
					}
				}
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		for _, e := range fusedEntries {
			for _, kind := range kinds {
				check(t, e, 301, 257, 40, 45, kind)
			}
		}
	})
}

// TestEpilogueMustNotAlias pins the aliasing rule: a bias or residual that
// overlaps the destination's rows is rejected, one beside them is not.
func TestEpilogueMustNotAlias(t *testing.T) {
	x, w := New(4, 3), New(3, 8)
	fill(x, 1)
	fill(w, 2)
	buf := make([]float64, 72)
	for _, tc := range []struct {
		name       string
		ep         Epilogue
		wantPanics bool
	}{
		{"residual is the destination", Epilogue{Res: buf[:32], ResLd: 8}, true},
		{"residual row inside the destination", Epilogue{Res: buf[24:32]}, true},
		{"bias inside the destination", Epilogue{Bias: buf[8:16]}, true},
		{"both beside it", Epilogue{Bias: buf[32:40], Res: buf[40:72], ResLd: 8}, false},
		{"short residual", Epilogue{Res: buf[32:50], ResLd: 8}, true},
		{"short bias", Epilogue{Bias: buf[32:39]}, true},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			AffineInto(buf[:32], 8, x, w, false, tc.ep)
			return false
		}()
		if panicked != tc.wantPanics {
			t.Errorf("%s: panicked = %v, want %v", tc.name, panicked, tc.wantPanics)
		}
	}
}

// TestAccumRowsBitwise holds the row-accumulate to its Go twin bit for bit
// under every tier, over widths ragged against the four- and sixteen-wide
// blocks, one row and many, with and without weights, and to the loops it
// replaced: the bias-gradient column sum as nn.Linear's backward ran it, and
// the linear aggregator's weighted sum with each product rounded before its
// add.
func TestAccumRowsBitwise(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		rng := NewRNG(27)
		for _, rows := range []int{1, 2, 16, 129} {
			for _, n := range []int{1, 3, 4, 7, 16, 21, 32, 64, 67} {
				ld := n + 2
				src, w, dst0 := Randn(rng, rows*ld).Data, Randn(rng, rows).Data, Randn(rng, n).Data
				for _, weighted := range []bool{false, true} {
					want := append([]float64(nil), dst0...)
					for r := 0; r < rows; r++ {
						row := src[r*ld : r*ld+n]
						if !weighted {
							for j, v := range row {
								want[j] += v
							}
							continue
						}
						for j, v := range row {
							want[j] += float64(w[r] * v)
						}
					}
					got := append([]float64(nil), dst0...)
					if weighted {
						AccumRows(got, src, ld, rows, w)
					} else {
						AccumRows(got, src, ld, rows, nil)
					}
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("rows=%d n=%d weighted=%v kernel=%s: column %d = %v, want %v", rows, n, weighted, KernelTier(), j, got[j], want[j])
						}
					}
				}
			}
		}
	})
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		buf := make([]float64, 8)
		AccumRows(buf[2:6], buf, 4, 2, nil)
		return false
	}()
	if !panicked {
		t.Fatal("AccumRows accepted a dst inside its src")
	}
}

// asColumn returns a [m, t, k] tensor whose column col holds the rows of x
// [m, k] and whose other columns hold NaN, so a read outside the column
// shows.
func asColumn(x *Tensor, col, t int) *Tensor {
	m, k := x.Shape[0], x.Shape[1]
	out := New(m, t, k)
	for i := range out.Data {
		out.Data[i] = math.NaN()
	}
	for i := 0; i < m; i++ {
		copy(out.Data[(i*t+col)*k:][:k], x.Data[i*k:][:k])
	}
	return out
}

// TestAffineColumnIntoBitwise holds AffineColumnInto over each column of a
// [m, t, k] tensor to AffineInto over a contiguous copy of that column, bit
// for bit, under every tier: both weight orientations, depths across kc, a
// residual read as a column of a [m, t, n] tensor as the final layer reads
// its partial sums, and rows split across goroutines.
func TestAffineColumnIntoBitwise(t *testing.T) {
	check := func(t *testing.T, m, tt, k, n int, wt bool) {
		t.Helper()
		x, res := New(m, tt, k), New(m, tt, n)
		fill(x, float64(m)+0.7)
		fill(res, float64(n)+0.2)
		w := New(k, n)
		if wt {
			w = New(n, k)
		}
		fill(w, float64(k)+0.4)
		for c := 0; c < tt; c++ {
			got, want := make([]float64, m*n), make([]float64, m*n)
			ep := Epilogue{Res: res.Data[c*n:], ResLd: tt * n}
			AffineColumnInto(got, n, x, c, w, wt, ep)
			col := New(m, k)
			for i := 0; i < m; i++ {
				copy(col.Data[i*k:][:k], x.Data[(i*tt+c)*k:][:k])
			}
			AffineInto(want, n, col, w, wt, ep)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("[%d,%d,%d] -> %d wt=%v column %d kernel=%s: element %d = %v, AffineInto %v",
						m, tt, k, n, wt, c, KernelTier(), i, got[i], want[i])
				}
			}
		}
	}
	withEveryTier(t, func(t *testing.T) {
		for _, m := range []int{1, 5, 64} {
			for _, tt := range []int{1, 2, 4} {
				for _, k := range []int{8, 32, 257} {
					for _, n := range []int{8, 33} {
						check(t, m, tt, k, n, false)
						check(t, m, tt, k, n, true)
					}
				}
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		check(t, 301, 4, 64, 64, true)
	})
}
