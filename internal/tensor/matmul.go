package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// parallelThreshold is the number of multiply-adds below which matrix
// products run serially; spawning goroutines for tiny products costs more
// than it saves.
const parallelThreshold = 1 << 16

// inProduct counts the goroutines currently inside gemm2D or batched. When
// the callers alone already fill GOMAXPROCS — the ranks of a mesh — a
// product that split its rows would only add goroutines to a full run queue,
// so it runs on its caller (serialDispatch).
var inProduct atomic.Int32

// This file is the destination-passing ("Into") matrix-product API. Every
// XInto(dst, ...) accepts dst == nil (allocate a fresh result) or a tensor of
// exactly the result shape (reuse it; prior contents are overwritten, and dst
// must not alias an operand). The classic allocating functions remain as thin
// XInto(nil, ...) wrappers so call sites migrate incrementally. The batched
// products take Views instead, so that operands and destinations can be
// strided. All variants funnel into the blocked, register-tiled driver in
// gemm.go.

// ensureDst validates or allocates the destination of an Into kernel.
func ensureDst(op string, dst *Tensor, shape ...int) *Tensor {
	if dst == nil {
		return New(shape...)
	}
	if len(dst.Shape) != len(shape) {
		// Copy shape into the panic message: boxing the parameter itself
		// would make every happy-path call heap-allocate the variadic slice.
		panic(fmt.Sprintf("tensor: %s dst rank %v, want %v", op, dst.Shape, append([]int(nil), shape...)))
	}
	for i, d := range shape {
		if dst.Shape[i] != d {
			panic(fmt.Sprintf("tensor: %s dst shape %v, want %v", op, dst.Shape, append([]int(nil), shape...)))
		}
	}
	return dst
}

// mustNotAlias panics when dst's backing range overlaps that of an operand
// the kernel reads while writing dst. Sub-slices of one array at different
// offsets overlap too, which a comparison of first elements would miss.
func mustNotAlias(op string, dst *Tensor, srcs ...*Tensor) {
	if dst == nil {
		return
	}
	for _, s := range srcs {
		if s != nil && overlaps(dst.Data, s.Data) {
			panic("tensor: " + op + " dst aliases an operand")
		}
	}
}

// overlaps reports whether two slices share any element of a backing array.
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	const size = unsafe.Sizeof(float64(0))
	x0 := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	y0 := uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 < y0+uintptr(len(y))*size && y0 < x0+uintptr(len(x))*size
}

// product is the rank-2 entry shared by the float64 and float32 products:
// dst = op(a)@op(b), or dst += ... with accum, where at and bt say which
// operands are stored transposed.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func product[T elem](op string, dst, a, b *Tensor, at, bt, accum bool) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v x %v", op, a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	if at {
		m, k = k, m
	}
	k2, n := b.Shape[0], b.Shape[1]
	if bt {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v (transposed: %v, %v)", op, a.Shape, b.Shape, at, bt))
	}
	dst = ensureDst(op, dst, m, n)
	mustNotAlias(op, dst, a, b)
	gemm2D[T](&gemmSpec{
		m: m, k: k, n: n, a: a.Data, b: b.Data, c: dst.Data,
		lda: a.Shape[1], ldb: b.Shape[1], ldc: n,
		at: at, bt: bt, accum: accum, alpha: 1,
	}, nil)
	return dst
}

// MatMulInto computes dst = a@b for rank-2 tensors: a is [M,K], b is [K,N],
// dst is [M,N] (allocated when nil). It returns dst.
//
// dchag:hotpath — the busiest op in the repository; with a non-nil dst it
// performs no heap allocation.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	return product[float64]("MatMulInto", dst, a, b, false, false, false)
}

// MatMulTInto computes dst = a @ b^T: a is [M,K], b is [N,K], dst is [M,N].
// This avoids materializing the transpose. It returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func MatMulTInto(dst, a, b *Tensor) *Tensor {
	return product[float64]("MatMulTInto", dst, a, b, false, true, false)
}

// TMatMulInto computes dst = a^T @ b: a is [K,M], b is [K,N], dst is [M,N].
// Used for weight gradients (x^T @ dy) without an explicit transpose. It
// returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func TMatMulInto(dst, a, b *Tensor) *Tensor {
	return product[float64]("TMatMulInto", dst, a, b, true, false, false)
}

// TMatMulAccInto accumulates dst += a^T @ b with a non-nil dst — the shape
// of a weight-gradient update, writing straight into the gradient buffer.
// nil ends is one product. Otherwise the depth (the rows of a and b) is
// summed in the pieces [0, ends[0]), [ends[0], ends[1]), ... in order, each
// one kc block: a piece's chain is added to dst before the next piece
// starts. Over rows compacted from a longer product, with ends from
// DepthSplits, the pieces are that product's blocks less their dropped
// rows, so where the dropped rows' b is zero the bits are its.
//
// dchag:hotpath — it performs no heap allocation.
func TMatMulAccInto(dst, a, b *Tensor, ends []int) {
	if dst == nil {
		panic("tensor: TMatMulAccInto requires a non-nil dst")
	}
	if ends == nil {
		product[float64]("TMatMulAccInto", dst, a, b, true, false, true)
		return
	}
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic("tensor: TMatMulAccInto wants dst += a^T@b over a [K,M], b [K,N]")
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	ensureDst("TMatMulAccInto", dst, m, n)
	mustNotAlias("TMatMulAccInto", dst, a, b)
	mustPieces("TMatMulAccInto", ends, k)
	lo := 0
	for _, hi := range ends {
		gemm2D[float64](&gemmSpec{
			m: m, k: hi - lo, n: n, a: a.Data[lo*m:], b: b.Data[lo*n:], c: dst.Data,
			lda: m, ldb: n, ldc: n, at: true, accum: true, alpha: 1,
		}, nil)
		lo = hi
	}
}

// AffineInto computes the m x n matrix x@w (x@w^T with wt) plus ep into a
// strided destination: row i of the result at dst[i*ldc:], ldc >= n, x
// [m,k], w [k,n] ([n,k] with wt). The epilogue's bias and residual are added
// as the kernel stores each tile (see Epilogue), so a layer's affine map, its
// residual sum, or an input gradient summed onto another is one pass over
// dst. dst must not overlap x, w or the residual.
//
// dchag:hotpath — every nn.Linear product and the tokenizer's; it performs
// no heap allocation.
func AffineInto(dst []float64, ldc int, x, w *Tensor, wt bool, ep Epilogue) {
	m, k := matShape("AffineInto", x)
	affine("AffineInto", dst, ldc, x.Data, m, k, k, w, wt, ep)
}

// AffineColumnInto is AffineInto over column col of x [m, t, k]: the m rows
// x[i, col, :], t*k apart, read in place. The D-CHAG stage's final layer
// forms the input gradient of its rank's own partition tokens with it, each
// row with the bits of AffineInto over all of x.
//
// dchag:hotpath — it performs no heap allocation.
func AffineColumnInto(dst []float64, ldc int, x *Tensor, col int, w *Tensor, wt bool, ep Epilogue) {
	if len(x.Shape) != 3 || col < 0 || col >= x.Shape[1] {
		panic(fmt.Sprintf("tensor: AffineColumnInto wants a column of a rank-3 x, got %d of %v", col, x.Shape))
	}
	m, t, k := x.Shape[0], x.Shape[1], x.Shape[2]
	var a []float64
	if m > 0 {
		a = x.Data[col*k : (m-1)*t*k+col*k+k]
	}
	affine("AffineColumnInto", dst, ldc, a, m, k, t*k, w, wt, ep)
}

// matShape returns the extents of x, which must be a matrix.
func matShape(op string, x *Tensor) (m, k int) {
	if len(x.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires a rank-2 x, got %v", op, x.Shape))
	}
	return x.Shape[0], x.Shape[1]
}

// affine is AffineInto over the m x k matrix whose rows lie lda apart in a.
func affine(op string, dst []float64, ldc int, a []float64, m, k, lda int, w *Tensor, wt bool, ep Epilogue) {
	if len(w.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires a rank-2 w, got %v", op, w.Shape))
	}
	kw, n := w.Shape[0], w.Shape[1]
	if wt {
		kw, n = n, kw
	}
	g := affineSpec(op, dst, ldc, a, m, k, lda, kw, n, ep)
	g.b, g.ldb, g.bt = w.Data, w.Shape[1], wt
	if overlaps(g.c, w.Data) {
		panic("tensor: " + op + " dst aliases an operand")
	}
	gemm2D[float64](&g, nil)
}

// affineSpec validates the operands the affine entries share — the m x k
// matrix x whose rows lie lda apart in a, against a k x n weight, dst rows
// ldc apart, the epilogue — and returns the product's description less its
// B operand.
func affineSpec(op string, dst []float64, ldc int, a []float64, m, k, lda, kw, n int, ep Epilogue) gemmSpec {
	if k != kw {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch [%d %d] x %d rows", op, m, k, kw))
	}
	if m > 0 && (ldc < n || len(dst) < (m-1)*ldc+n) {
		panic(fmt.Sprintf("tensor: %s destination of %d values at row stride %d does not hold %d x %d", op, len(dst), ldc, m, n))
	}
	var c []float64
	if m > 0 {
		c = dst[:(m-1)*ldc+n]
		ep.mustFit(op, m, n, c)
	}
	if overlaps(c, a) {
		panic("tensor: " + op + " dst aliases an operand")
	}
	return gemmSpec{m: m, k: k, n: n, a: a, c: c, lda: lda, ldc: ldc, alpha: 1, ep: ep}
}

// serialDispatch reports whether a row-parallel op should run on the calling
// goroutine: it is small, has one row, or the products in flight (the
// caller's included: gemm2D and batched count themselves in first) already
// occupy every processor — which at GOMAXPROCS 1 is always. The summation
// order does not depend on the split, so the answer never changes a result.
// Callers branch on it BEFORE building the dispatch closure, so the serial
// path allocates nothing at all.
//
// dchag:hotpath — it must not allocate.
func serialDispatch(m, work int) bool {
	return work < parallelThreshold || m == 1 || int(inProduct.Load()) >= runtime.GOMAXPROCS(0)
}

// parallelOverRows splits [0,m) into at most GOMAXPROCS contiguous blocks
// and runs fn on each concurrently. Callers have asked serialDispatch first.
//
// dchag:hotpath — dispatch overhead only; allocation belongs to callers.
func parallelOverRows(m int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), m)
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// View is a batch of equally shaped row-major float64 matrices inside one
// backing slice: consecutive rows of a matrix are ld elements apart, and
// matrix (o, i) of the outer x inner batch starts o*outerStride +
// i*innerStride elements in. It is how the batched products address operands
// and destinations that are not contiguous per matrix — the heads of a
// [N,T,H*Dh] projection output — without a permutation copy: the kernel
// reads them at their stride. Views come from MatView and HeadView, which
// guarantee that every matrix lies inside the slice; batch order is o major,
// i minor.
type View struct {
	data                     []float64
	rows, cols, ld           int
	outer, inner             int
	outerStride, innerStride int
}

// MatView views a contiguous tensor [B..., R, C] as its batch of R x C
// matrices.
func MatView(t *Tensor) View {
	r := len(t.Shape)
	if r < 2 {
		panic(fmt.Sprintf("tensor: MatView requires rank >= 2, got %v", t.Shape))
	}
	rows, cols := t.Shape[r-2], t.Shape[r-1]
	batch := 1
	for _, d := range t.Shape[:r-2] {
		batch *= d
	}
	return View{data: t.Data, rows: rows, cols: cols, ld: cols, outer: batch, inner: 1, outerStride: rows * cols}
}

// HeadView views x [N,T,H*Dh] as the N*H per-head matrices [T,Dh] of
// multi-head attention, in place: head h of sample n starts at x[n,0,h*Dh]
// and its rows are H*Dh apart. The batch order (n major, h minor) matches
// MatView of a contiguous [N,H,...] tensor.
func HeadView(x *Tensor, heads int) View {
	if len(x.Shape) != 3 || heads <= 0 || x.Shape[2]%heads != 0 {
		panic(fmt.Sprintf("tensor: HeadView requires [N,T,H*Dh] with H = %d, got %v", heads, x.Shape))
	}
	n, t, e := x.Shape[0], x.Shape[1], x.Shape[2]
	return View{data: x.Data, rows: t, cols: e / heads, ld: e, outer: n, inner: heads, outerStride: t * e, innerStride: e / heads}
}

// RepeatView views the matrix x [R,C] as every one of n batch members, in
// place: the operand a batched product shares across its members.
func RepeatView(x *Tensor, n int) View {
	if len(x.Shape) != 2 || n < 0 {
		panic(fmt.Sprintf("tensor: RepeatView requires a matrix and n >= 0, got %v and %d", x.Shape, n))
	}
	return View{data: x.Data, rows: x.Shape[0], cols: x.Shape[1], ld: x.Shape[1], outer: n, inner: 1}
}

// viewCursor walks a View's batch members in order without dividing: off is
// the current member's offset into data, i its inner index.
type viewCursor struct{ off, i int }

// cursor positions a walk at batch member bi.
func (v *View) cursor(bi int) viewCursor {
	return viewCursor{off: bi/v.inner*v.outerStride + bi%v.inner*v.innerStride, i: bi % v.inner}
}

// next returns the current member's backing slice from its element (0,0) and
// advances the walk.
func (v *View) next(c *viewCursor) []float64 {
	m := v.data[c.off:]
	c.off += v.innerStride
	if c.i++; c.i == v.inner {
		c.i = 0
		c.off += v.outerStride - v.inner*v.innerStride
	}
	return m
}

// batched is the entry shared by the batched products: per batch member,
// dst = alpha*op(a)@op(b), plus member i's bias row bias[i*n:(i+1)*n] when
// bias is non-nil, with the depth summed in the pieces ends gives (see
// TMatMulAccInto; nil is one product). The three views must agree on
// the batch count and dst's backing slice must not overlap an operand's.
//
// dchag:hotpath — every attention product; it performs no heap allocation
// while the batch runs on the calling goroutine.
func batched[T elem](op string, dst, a, b View, at, bt bool, alpha float64, bias []float64, ends []int) {
	m, k := a.rows, a.cols
	if at {
		m, k = k, m
	}
	k2, n := b.rows, b.cols
	if bt {
		k2, n = n, k2
	}
	batch := dst.outer * dst.inner
	if k != k2 || dst.rows != m || dst.cols != n || a.outer*a.inner != batch || b.outer*b.inner != batch {
		panic(fmt.Sprintf("tensor: %s shape mismatch: %d x [%d,%d] and %d x [%d,%d] (transposed: %v, %v) into %d x [%d,%d]",
			op, a.outer*a.inner, a.rows, a.cols, b.outer*b.inner, b.rows, b.cols, at, bt, batch, dst.rows, dst.cols))
	}
	if overlaps(dst.data, a.data) || overlaps(dst.data, b.data) || overlaps(dst.data, bias) {
		panic("tensor: " + op + " dst aliases an operand")
	}
	if bias != nil && len(bias) != batch*n {
		panic(fmt.Sprintf("tensor: %s bias has %d values for %d members of %d columns", op, len(bias), batch, n))
	}
	mustPieces(op, ends, k)
	if m == 0 || n == 0 {
		return
	}
	g := gemmSpec{m: m, k: k, n: n, lda: a.ld, ldb: b.ld, ldc: dst.ld, at: at, bt: bt, alpha: alpha}
	work := batch * m * k * n
	inProduct.Add(1)
	defer inProduct.Add(-1)
	if serialDispatch(batch, work) {
		batchedRange[T](dst, a, b, g, bias, ends, 0, batch)
		return
	}
	spec := g // the closure's copy; g itself stays on this stack
	parallelOverRows(batch, func(lo, hi int) {
		batchedRange[T](dst, a, b, spec, bias, ends, lo, hi)
	})
}

// batchedRange runs batch members [lo,hi) of the product g describes (less
// its operand slices) on one set of stack panels, each member's depth in the
// pieces ends gives: the first stores, the rest accumulate, and the bias is
// added at the last one's store — the order the driver gives its own kc
// blocks.
func batchedRange[T elem](dst, a, b View, g gemmSpec, bias []float64, ends []int, lo, hi int) {
	var st stackPanels[T]
	ca, cb, cd := a.cursor(lo), b.cursor(lo), dst.cursor(lo)
	for bi := lo; bi < hi; bi++ {
		am, bm, cm := a.next(&ca), b.next(&cb), dst.next(&cd)
		if bias != nil {
			g.ep.Bias = bias[bi*g.n : (bi+1)*g.n]
		}
		if len(ends) == 0 {
			g.a, g.b, g.c = am, bm, cm
			gemmBlocked(&g, nil, &st)
			continue
		}
		p := g
		p0 := 0
		for _, p1 := range ends {
			p.k, p.accum, p.ep = p1-p0, p0 > 0, Epilogue{}
			if p1 == g.k {
				p.ep = g.ep
			}
			// Depth runs down A's rows when A is stored transposed, along
			// them otherwise; likewise B's.
			p.a, p.b, p.c = am[p0*g.lda:], bm[p0*g.ldb:], cm
			if !g.at {
				p.a = am[p0:]
			}
			if g.bt {
				p.b = bm[p0:]
			}
			gemmBlocked(&p, nil, &st)
			p0 = p1
		}
	}
}

// mustPieces panics unless ends cuts a depth-k product into pieces of 1 to
// kc rows that end at k; nil cuts nothing.
func mustPieces(op string, ends []int, k int) {
	lo := 0
	for _, hi := range ends {
		if hi <= lo || hi-lo > gemmKC || hi > k {
			panic(fmt.Sprintf("tensor: %s piece [%d,%d) of a %d-deep product", op, lo, hi, k))
		}
		lo = hi
	}
	if ends != nil && lo != k {
		panic(fmt.Sprintf("tensor: %s pieces end at %d of a %d-deep product", op, lo, k))
	}
}

// BatchedMatMulInto computes dst = alpha * a@b per batch member: a is
// [M,K], b is [K,N], dst is [M,N].
//
// dchag:hotpath — it performs no heap allocation.
func BatchedMatMulInto(dst, a, b View, alpha float64) {
	batched[float64]("BatchedMatMulInto", dst, a, b, false, false, alpha, nil, nil)
}

// BatchedMatMulTInto computes dst = alpha * a@b^T per batch member: a is
// [M,K], b is [N,K], dst is [M,N]. This is the attention score product
// Q @ K^T, with the 1/sqrt(Dh) scale as alpha.
//
// dchag:hotpath — it performs no heap allocation.
func BatchedMatMulTInto(dst, a, b View, alpha float64) {
	batched[float64]("BatchedMatMulTInto", dst, a, b, false, true, alpha, nil, nil)
}

// BatchedTMatMulInto computes dst = alpha * a^T@b per batch member: a is
// [K,M], b is [K,N], dst is [M,N]. This is the gradient product scores^T @
// dOut of the attention backward pass. nil ends is one product per member;
// otherwise each member's depth (the rows of a and b) is summed in the
// pieces ends gives, in order, each at most kc deep, as TMatMulAccInto does:
// over rows compacted from a longer product, with ends from DepthSplits,
// the pieces are that product's kc blocks less their dropped rows.
//
// dchag:hotpath — it performs no heap allocation.
func BatchedTMatMulInto(dst, a, b View, alpha float64, ends []int) {
	batched[float64]("BatchedTMatMulInto", dst, a, b, true, false, alpha, nil, ends)
}

// BatchedAffineInto computes dst = alpha * a@b + bias per batch member: a is
// [M,K], b is [K,N], dst is [M,N], and member i adds bias[i*N:(i+1)*N] to
// each of its rows as the kernel stores them (Epilogue.Bias); nil adds
// none. It is the cross stage's folded projection: one member per channel
// of a group, each with its own weights and bias.
//
// dchag:hotpath — it performs no heap allocation.
func BatchedAffineInto(dst, a, b View, alpha float64, bias []float64) {
	batched[float64]("BatchedAffineInto", dst, a, b, false, false, alpha, bias, nil)
}
