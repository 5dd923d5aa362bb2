package tensor

import (
	"fmt"
	"math"
	"testing"
)

// matBatch is a batch of n*h row-major rows x cols matrices: contiguous
// ([n,h,rows,cols], addressed through MatView) or the per-head slices of an
// [n,rows,h*cols] tensor (HeadView), the layout attention reads in place.
type matBatch struct {
	t                *Tensor
	view             View
	n, h, rows, cols int
	strided          bool
}

func newMatBatch(n, h, rows, cols int, strided bool, seed float64) *matBatch {
	b := &matBatch{n: n, h: h, rows: rows, cols: cols, strided: strided}
	if strided {
		b.t = New(n, rows, h*cols)
		b.view = HeadView(b.t, h)
	} else {
		b.t = New(n, h, rows, cols)
		b.view = MatView(b.t)
	}
	fill(b.t, seed)
	return b
}

// at addresses element (r,c) of batch member bi.
func (b *matBatch) at(bi, r, c int) *float64 {
	ni, hi := bi/b.h, bi%b.h
	if b.strided {
		return &b.t.Data[(ni*b.rows+r)*b.h*b.cols+hi*b.cols+c]
	}
	return &b.t.Data[((ni*b.h+hi)*b.rows+r)*b.cols+c]
}

// mat2D is the single matrix of a 1 x 1 contiguous batch as a rank-2 tensor.
func (b *matBatch) mat2D() *Tensor { return b.t.Reshape(b.rows, b.cols) }

// dense copies batch member bi into a contiguous rows x cols matrix, or its
// transpose when the member is stored transposed.
func (b *matBatch) dense(bi int, transposed bool) []float64 {
	out := make([]float64, b.rows*b.cols)
	for r := 0; r < b.rows; r++ {
		for c := 0; c < b.cols; c++ {
			if transposed {
				out[c*b.rows+r] = *b.at(bi, r, c)
			} else {
				out[r*b.cols+c] = *b.at(bi, r, c)
			}
		}
	}
	return out
}

// oracle is the reference every product entry point is held to: the naive
// triple loop, one multiply and one add per term in float64, p ascending.
// It returns want[bi][i*n+j] = alpha*sum_p op(a)[i,p]*op(b)[p,j] (+ prior
// dst with accum), then + ep's bias and + ep's residual.
func oracle(dst, a, b *matBatch, m, k, n int, at, bt, accum bool, alpha float64, ep Epilogue) [][]float64 {
	want := make([][]float64, a.n*a.h)
	for bi := range want {
		am, bm := a.dense(bi, at), b.dense(bi, !bt) // [m,k] and [n,k]
		want[bi] = make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p, av := range am[i*k : (i+1)*k] {
					s += av * bm[j*k+p]
				}
				s *= alpha
				if accum {
					s += *dst.at(bi, i, j)
				}
				want[bi][i*n+j] = ep.add(s, i, j)
			}
		}
	}
	return want
}

// epilogueKind is which parts of an Epilogue an entry point is tested with.
type epilogueKind uint8

const (
	epNone    epilogueKind = iota
	epBias                 // a bias row
	epRow                  // a residual of one row (ResLd 0)
	epRows                 // a residual of m rows at a stride wider than n
	epBiasRow              // both, the tokenizer's bias and channel-ID row
	epBoth                 // both, a layer's bias and a block's residual
)

// epilogue draws the parts of kind for an m x n destination from alloc (bias
// first, then the residual).
func (kind epilogueKind) epilogue(m, n int, alloc func(elems int) []float64) Epilogue {
	var ep Epilogue
	if kind == epBias || kind == epBiasRow || kind == epBoth {
		ep.Bias = alloc(n)
		fillSlice(ep.Bias, 0.9)
	}
	switch kind {
	case epRow, epBiasRow:
		ep.Res = alloc(n)
	case epRows, epBoth:
		ep.ResLd = n + 3
		ep.Res = alloc((m-1)*ep.ResLd + n)
	}
	fillSlice(ep.Res, 1.7)
	return ep
}

// fillSlice is fill over a bare slice.
func fillSlice(s []float64, seed float64) {
	if len(s) > 0 {
		fill(FromSlice(s, len(s)), seed)
	}
}

// productEntry is one product entry point of the package under the
// differential test.
type productEntry struct {
	name               string
	at, bt, accum, f32 bool
	batched            bool
	ep                 epilogueKind
	call               func(dst, a, b *matBatch, alpha float64, ep Epilogue)
}

var productEntries = []productEntry{
	{name: "MatMulInto", call: func(d, a, b *matBatch, _ float64, _ Epilogue) { MatMulInto(d.mat2D(), a.mat2D(), b.mat2D()) }},
	{name: "MatMulTInto", bt: true, call: func(d, a, b *matBatch, _ float64, _ Epilogue) { MatMulTInto(d.mat2D(), a.mat2D(), b.mat2D()) }},
	{name: "TMatMulInto", at: true, call: func(d, a, b *matBatch, _ float64, _ Epilogue) { TMatMulInto(d.mat2D(), a.mat2D(), b.mat2D()) }},
	{name: "TMatMulAccInto", at: true, accum: true, call: func(d, a, b *matBatch, _ float64, _ Epilogue) { TMatMulAccInto(d.mat2D(), a.mat2D(), b.mat2D()) }},
	{name: "MatMulF32Into", f32: true, call: func(d, a, b *matBatch, _ float64, _ Epilogue) { MatMulF32Into(d.mat2D(), a.mat2D(), b.mat2D()) }},
	{name: "AffineInto bias+rows", ep: epBoth, call: func(d, a, b *matBatch, _ float64, ep Epilogue) {
		AffineInto(d.t.Data, d.cols, a.mat2D(), b.mat2D(), false, ep)
	}},
	{name: "AffineInto^T row", bt: true, ep: epRow, call: func(d, a, b *matBatch, _ float64, ep Epilogue) {
		AffineInto(d.t.Data, d.cols, a.mat2D(), b.mat2D(), true, ep)
	}},
	{name: "AffinePackedF32Into", f32: true, call: func(d, a, b *matBatch, _ float64, _ Epilogue) {
		AffinePackedF32Into(d.t.Data, d.cols, a.mat2D(), PackB32(b.mat2D()), Epilogue{})
	}},
	{name: "AffinePackedF32Into bias+row", f32: true, ep: epBiasRow, call: func(d, a, b *matBatch, _ float64, ep Epilogue) {
		AffinePackedF32Into(d.t.Data, d.cols, a.mat2D(), PackB32(b.mat2D()), ep)
	}},
	{name: "BatchedMatMulInto", batched: true, call: func(d, a, b *matBatch, al float64, _ Epilogue) { BatchedMatMulInto(d.view, a.view, b.view, al) }},
	{name: "BatchedMatMulTInto", bt: true, batched: true, call: func(d, a, b *matBatch, al float64, _ Epilogue) { BatchedMatMulTInto(d.view, a.view, b.view, al) }},
	{name: "BatchedTMatMulInto", at: true, batched: true, call: func(d, a, b *matBatch, al float64, _ Epilogue) { BatchedTMatMulInto(d.view, a.view, b.view, al) }},
	{name: "BatchedMatMulF32Into", f32: true, batched: true, call: func(d, a, b *matBatch, al float64, _ Epilogue) { BatchedMatMulF32Into(d.view, a.view, b.view, al) }},
	{name: "BatchedMatMulTF32Into", bt: true, f32: true, batched: true, call: func(d, a, b *matBatch, al float64, _ Epilogue) {
		BatchedMatMulTF32Into(d.view, a.view, b.view, al)
	}},
}

// check runs one entry point at one shape and layout against the oracle.
func (e productEntry) check(t *testing.T, m, k, n int, strided bool) {
	t.Helper()
	dst, a, b, ep, alpha := e.operands(m, k, n, strided, heapFloats)
	want := oracle(dst, a, b, m, k, n, e.at, e.bt, e.accum, alpha, ep)
	e.call(dst, a, b, alpha, ep)

	// Operands are in [-1,1]: rounding grows with k, at the precision of the
	// arithmetic.
	tol := 1e-14 * float64(k+1)
	if e.f32 {
		tol = 2e-7 * float64(k+1)
	}
	for bi := range want {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				got, w := *dst.at(bi, i, j), want[bi][i*n+j]
				if !(math.Abs(got-w) <= tol) {
					t.Fatalf("%s [%d,%d,%d] strided=%v kernel=%s: batch %d element (%d,%d) = %v, oracle %v (tol %g)",
						e.name, m, k, n, strided, KernelTier(), bi, i, j, got, w, tol)
				}
			}
		}
	}
}

// productShapes is the grid of the differential test: every combination of
// small extents that crosses the micro-tile edges (1, primes, mr/nr and
// their remainders), depths straddling kc = 256, row and column counts
// straddling mc = 128 and nc = 512, and the shapes the D-CHAG workloads
// actually issue.
func productShapes() [][3]int {
	var shapes [][3]int
	small := []int{1, 3, 4, 5, 8, 9, 16, 17}
	for _, m := range small {
		for _, k := range small {
			for _, n := range small {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return append(shapes, [][3]int{
		{5, 255, 7}, {5, 256, 9}, {6, 257, 17}, {3, 513, 20}, {4, 8, 130},
		{129, 31, 33}, {130, 300, 513}, {33, 257, 70}, {64, 512, 96},
		{16, 8, 16}, {16, 16, 8}, {4, 8, 4}, {64, 8, 64}, {64, 64, 8},
		{2048, 32, 32}, {32, 2048, 32},
	}...)
}

// TestProductsMatchOracle is the differential test of the compute substrate:
// every product entry point, on contiguous operands and (the batched ones)
// on strided head views, against the naive oracle over productShapes, under
// every kernel tier the machine has.
func TestProductsMatchOracle(t *testing.T) {
	run := func(t *testing.T) {
		for _, e := range productEntries {
			for _, sh := range productShapes() {
				if e.batched && sh[0]*sh[1]*sh[2] > 1<<18 {
					continue // six members of each: keep the oracle affordable
				}
				e.check(t, sh[0], sh[1], sh[2], false)
				if e.batched {
					e.check(t, sh[0], sh[1], sh[2], true)
				}
			}
		}
	}
	withEveryTier(t, run)
}

// withBothSpellings runs f under the assembly kernels (where the CPU has
// them) and under their Go twins.
func withBothSpellings(t *testing.T, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("simd=%v", useSIMD), f)
	if useSIMD {
		WithGoTwins(func() { t.Run("simd=false", f) })
	}
}

// withEveryTier runs f under each product-kernel tier this machine has, from
// the widest down: kernel=avx512 and kernel=avx2 under simd=true, kernel=go
// under simd=false. It logs the tiers it ran, so a machine without AVX-512
// shows as one that did not test it.
func withEveryTier(t *testing.T, f func(t *testing.T)) {
	var ran []string
	withBothSpellings(t, func(t *testing.T) {
		defer func(avx512 bool) { useAVX512 = avx512 }(useAVX512)
		for {
			ran = append(ran, KernelTier())
			t.Run("kernel="+KernelTier(), f)
			if !useAVX512 {
				return
			}
			useAVX512 = false
		}
	})
	t.Logf("kernel tiers run: %v", ran)
}

// TestSmallPathEqualsBlockedPath pins the size-independent summation
// contract bit for bit: a product small enough for the stack panels equals
// the same columns (and rows) computed as part of a product wide enough to
// take the pooled-panel path, for every operand orientation and both
// arithmetics.
func TestSmallPathEqualsBlockedPath(t *testing.T) {
	const extra = 1100 // widens B past the stack panel at any depth >= 1
	for _, sh := range [][3]int{{16, 8, 16}, {16, 16, 8}, {4, 8, 4}, {64, 8, 64}, {2048, 32, 32}, {5, 100, 8}, {9, 128, 3}} {
		m, k, n := sh[0], sh[1], sh[2]
		wide := New(k, n+extra)
		fill(wide, 0.3)
		narrow := SliceAxis(wide, 1, 0, n)
		a := New(m, k)
		fill(a, 1.3)
		aT, wideT, narrowT := Transpose2D(a), Transpose2D(wide), Transpose2D(narrow)
		for _, tc := range []struct {
			name        string
			small, full *Tensor
		}{
			{"MatMulInto", MatMulInto(nil, a, narrow), MatMulInto(nil, a, wide)},
			{"MatMulTInto", MatMulTInto(nil, a, narrowT), MatMulTInto(nil, a, wideT)},
			{"TMatMulInto", TMatMulInto(nil, aT, narrow), TMatMulInto(nil, aT, wide)},
			{"MatMulF32Into", MatMulF32Into(nil, a, narrow), MatMulF32Into(nil, a, wide)},
		} {
			assertBitwise(t, fmt.Sprintf("%s %v vs widened", tc.name, sh), tc.small, SliceAxis(tc.full, 1, 0, n))
		}
		// Rows: the first rows of a tall product equal the product of the
		// first rows, whatever mc the driver chose for either.
		if m > 3 {
			top := SliceAxis(a, 0, 0, m/2+1)
			assertBitwise(t, fmt.Sprintf("MatMulInto %v top rows", sh),
				MatMulInto(nil, top, narrow), SliceAxis(MatMulInto(nil, a, narrow), 0, 0, m/2+1))
		}
	}
}

// TestStridedViewEqualsContiguousCopy pins the view contract bit for bit: a
// batched product over head views equals the product over contiguous copies
// of the same heads, destination layout included.
func TestStridedViewEqualsContiguousCopy(t *testing.T) {
	// copyOf returns b's matrices in the other layout.
	copyOf := func(b *matBatch) *matBatch {
		c := newMatBatch(b.n, b.h, b.rows, b.cols, !b.strided, 0)
		for bi := 0; bi < b.n*b.h; bi++ {
			for r := 0; r < b.rows; r++ {
				for x := 0; x < b.cols; x++ {
					*c.at(bi, r, x) = *b.at(bi, r, x)
				}
			}
		}
		return c
	}
	for _, e := range productEntries {
		if !e.batched {
			continue
		}
		for _, sh := range [][3]int{{16, 8, 16}, {16, 16, 8}, {4, 8, 4}, {64, 8, 64}, {64, 64, 8}, {5, 3, 7}} {
			m, k, n := sh[0], sh[1], sh[2]
			ar, ac, br, bc := m, k, k, n
			if e.at {
				ar, ac = k, m
			}
			if e.bt {
				br, bc = n, k
			}
			a := newMatBatch(3, 4, ar, ac, true, 0.2)
			b := newMatBatch(3, 4, br, bc, true, 1.2)
			strided := newMatBatch(3, 4, m, n, true, 0)
			contig := newMatBatch(3, 4, m, n, false, 0)
			e.call(strided, a, b, 0.35, Epilogue{})
			e.call(contig, copyOf(a), copyOf(b), 0.35, Epilogue{})
			assertBitwise(t, fmt.Sprintf("%s %v", e.name, sh), copyOf(strided).t, contig.t)
		}
	}
}

// TestMustNotAliasChecksBackingRanges pins the aliasing check on ranges, not
// first elements: a destination overlapping an operand anywhere in one
// backing array is rejected, disjoint parts of one array and empty tensors
// are not.
func TestMustNotAliasChecksBackingRanges(t *testing.T) {
	buf := make([]float64, 64)
	for i := range buf {
		buf[i] = float64(i%7) - 3
	}
	sq := func(lo int) *Tensor { return FromSlice(buf[lo:lo+16], 4, 4) }
	other := New(4, 4)
	fill(other, 0.5)
	for _, tc := range []struct {
		name       string
		dst, a, b  *Tensor
		wantPanics bool
	}{
		{"same start", sq(0), sq(0), other, true},
		{"offset overlap", sq(8), sq(0), other, true},
		{"second operand starts in dst's last element", sq(0), other, sq(15), true},
		{"disjoint parts of one array", sq(0), sq(16), sq(32), false},
		{"empty tensors at one address", FromSlice(buf[:0], 0, 4), FromSlice(buf[:0], 0, 4), other, false},
	} {
		for name, call := range map[string]func(){
			"MatMulInto":        func() { MatMulInto(tc.dst, tc.a, tc.b) },
			"BatchedMatMulInto": func() { BatchedMatMulInto(MatView(tc.dst), MatView(tc.a), MatView(tc.b), 1) },
		} {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				call()
				return false
			}()
			if panicked != tc.wantPanics {
				t.Errorf("%s, %s: panicked = %v, want %v", name, tc.name, panicked, tc.wantPanics)
			}
		}
	}
}

// TestBatchedViewsSteadyStateAllocs pins the batched products over views at
// zero allocations per call on the calling goroutine.
func TestBatchedViewsSteadyStateAllocs(t *testing.T) {
	q, k := New(8, 16, 32), New(8, 16, 32)
	fill(q, 1)
	fill(k, 2)
	scores, ctx := New(8, 4, 16, 16), New(8, 16, 32)
	step := func() {
		BatchedMatMulTInto(MatView(scores), HeadView(q, 4), HeadView(k, 4), 0.5)
		BatchedMatMulInto(HeadView(ctx, 4), MatView(scores), HeadView(k, 4), 1)
		BatchedTMatMulInto(HeadView(ctx, 4), MatView(scores), HeadView(q, 4), 1)
		BatchedMatMulTF32Into(MatView(scores), HeadView(q, 4), HeadView(k, 4), 0.5)
		BatchedMatMulF32Into(HeadView(ctx, 4), MatView(scores), HeadView(k, 4), 1)
	}
	step()
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("batched products over views allocate %.1f times per step", n)
	}
}
