package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// This file pins "same arithmetic, less movement": the driver reads most
// operands where they lie, and must still compute exactly what it computed
// when every block went through pack.

// packEverything is the composition the strided driver replaced, kept as
// its oracle: both blocks of every cache block packed into panels, the
// kernel run one tile at a time at panel strides. ap and bp hold a whole
// mc x kc and kc x nc block.
func packEverything[T elem](g *gemmSpec, ap, bp []T) {
	nr := nrOf[T]()
	tile := make([]float64, gemmMR*gemmNR32)
	for p0 := 0; p0 < g.k; p0 += gemmKC {
		kb := min(gemmKC, g.k-p0)
		accum := g.accum || p0 > 0
		for j0 := 0; j0 < g.n; j0 += gemmNC {
			nb := min(gemmNC, g.n-j0)
			pack(bp, g.b, g.ldb, j0, p0, nb, kb, nr, !g.bt)
			for i0 := 0; i0 < g.m; i0 += gemmMC {
				mb := min(gemmMC, g.m-i0)
				pack(ap, g.a, g.lda, i0, p0, mb, kb, gemmMR, g.at)
				for jr := 0; jr < nb; jr += nr {
					for ir := 0; ir < mb; ir += gemmMR {
						ib, jb := min(gemmMR, mb-ir), min(nr, nb-jr)
						c := g.c[(i0+ir)*g.ldc+j0+jr:]
						if ib == gemmMR && jb == nr {
							kernel(kb, nr, ap[ir*kb:], 1, gemmMR, bp[jr*kb:], nr, 0, c, g.ldc, 1, g.alpha, accum, Epilogue{})
						} else {
							edgeTile(kb, nr, ap[ir*kb:], 1, gemmMR, bp[jr*kb:], nr, c, g.ldc, ib, jb, g.alpha, accum, Epilogue{}, tile)
						}
					}
				}
			}
		}
	}
}

// matBatchOver lays a matBatch out over buf, which has exactly its element
// count.
func matBatchOver(buf []float64, n, h, rows, cols int, strided bool, seed float64) *matBatch {
	b := &matBatch{n: n, h: h, rows: rows, cols: cols, strided: strided}
	if strided {
		b.t = FromSlice(buf, n, rows, h*cols)
		b.view = HeadView(b.t, h)
	} else {
		b.t = FromSlice(buf, n, h, rows, cols)
		b.view = MatView(b.t)
	}
	fill(b.t, seed)
	return b
}

// operands builds what one entry point reads and writes at one shape, as the
// entry lays it out, in memory from alloc (one call per operand, in the order
// a, b, dst, then the epilogue's bias and residual where the entry has them).
func (e productEntry) operands(m, k, n int, strided bool, alloc func(elems int) []float64) (dst, a, b *matBatch, ep Epilogue, alpha float64) {
	nb, h, alpha := 1, 1, 1.0
	if e.batched {
		nb, h, alpha = 2, 3, 0.35
	}
	ar, ac, br, bc := m, k, k, n
	if e.at {
		ar, ac = k, m
	}
	if e.bt {
		br, bc = n, k
	}
	a = matBatchOver(alloc(nb*h*ar*ac), nb, h, ar, ac, strided, float64(m)+0.1)
	b = matBatchOver(alloc(nb*h*br*bc), nb, h, br, bc, strided, float64(n)+0.7)
	dst = matBatchOver(alloc(nb*h*m*n), nb, h, m, n, strided, 2.5)
	if !e.accum {
		dst.t.Fill(math.NaN()) // every entry point must overwrite its destination
	}
	return dst, a, b, e.ep.epilogue(m, n, alloc), alpha
}

func heapFloats(n int) []float64 { return make([]float64, n) }

// layouts are the operand layouts an entry point is tested in: contiguous,
// and for the batched entries head views too.
func (e productEntry) layouts() []bool {
	if e.batched {
		return []bool{false, true}
	}
	return []bool{false}
}

// driverEntries are the package's entry points plus what of the generic
// driver none of them reaches: float32 compute over A^T, and an epilogue
// after accumulation or after float32 compute with B packed per call.
var driverEntries = append(append([]productEntry(nil), productEntries...),
	productEntry{name: "gemm2D[float32] A^T", at: true, f32: true, call: func(d, a, b *matBatch, al float64, _ Epilogue) {
		gemm2D[float32](&gemmSpec{
			m: d.rows, k: a.rows, n: d.cols, a: a.t.Data, b: b.t.Data, c: d.t.Data,
			lda: a.cols, ldb: b.cols, ldc: d.cols, at: true, alpha: al,
		}, nil)
	}},
	productEntry{name: "gemm2D[float64] accumulate, bias+rows", accum: true, ep: epBoth, call: func(d, a, b *matBatch, al float64, ep Epilogue) {
		gemm2D[float64](&gemmSpec{
			m: d.rows, k: a.cols, n: d.cols, a: a.t.Data, b: b.t.Data, c: d.t.Data,
			lda: a.cols, ldb: b.cols, ldc: d.cols, accum: true, alpha: al, ep: ep,
		}, nil)
	}},
	productEntry{name: "gemm2D[float32] bias+rows", f32: true, ep: epBoth, call: func(d, a, b *matBatch, al float64, ep Epilogue) {
		gemm2D[float32](&gemmSpec{
			m: d.rows, k: a.cols, n: d.cols, a: a.t.Data, b: b.t.Data, c: d.t.Data,
			lda: a.cols, ldb: b.cols, ldc: d.cols, alpha: al, ep: ep,
		}, nil)
	}})

// TestDriverEqualsPackEverythingBitwise holds every product entry point to
// the pack-everything composition bit for bit: over productShapes, both
// operand orientations, accumulation, alpha != 1 (the batched entries run at
// 0.35), contiguous and head-view operands, both arithmetics, with and
// without an epilogue, under every kernel tier the machine has. Reading an
// operand in place must not change a single bit of any product, and adding
// the epilogue at the tile store must not change one of the bias and
// residual passes it replaced (applied to the oracle as they were).
func TestDriverEqualsPackEverythingBitwise(t *testing.T) {
	const aElems, bElems = (gemmMC + gemmMR) * gemmKC, (gemmNC + gemmNR32) * gemmKC
	ap64, bp64 := make([]float64, aElems), make([]float64, bElems)
	ap32, bp32 := make([]float32, aElems), make([]float32, bElems)
	withEveryTier(t, func(t *testing.T) {
		for _, e := range driverEntries {
			for _, sh := range productShapes() {
				m, k, n := sh[0], sh[1], sh[2]
				if e.batched && m*k*n > 1<<18 {
					continue
				}
				for _, strided := range e.layouts() {
					got, a, b, ep, alpha := e.operands(m, k, n, strided, heapFloats)
					want, _, _, _, _ := e.operands(m, k, n, strided, heapFloats)
					e.call(got, a, b, alpha, ep)

					g := gemmSpec{m: m, k: k, n: n, lda: a.view.ld, ldb: b.view.ld, ldc: want.view.ld,
						at: e.at, bt: e.bt, accum: e.accum, alpha: alpha}
					ca, cb, cd := a.view.cursor(0), b.view.cursor(0), want.view.cursor(0)
					for bi := 0; bi < a.n*a.h; bi++ {
						g.a, g.b, g.c = a.view.next(&ca), b.view.next(&cb), want.view.next(&cd)
						if e.f32 {
							packEverything(&g, ap32, bp32)
						} else {
							packEverything(&g, ap64, bp64)
						}
					}
					unfusedEpilogue(want.t.Data, m, n, n, ep)
					assertBitwise(t, fmt.Sprintf("%s %v strided=%v kernel=%s", e.name, sh, strided, KernelTier()), got.t, want.t)
				}
			}
		}
	})
}

// TestPanelPlan pins the planning function: which operand of which
// orientation, raggedness and arithmetic passes through pack, and how many
// elements that moves.
func TestPanelPlan(t *testing.T) {
	type row struct {
		at, bt     bool
		m, n       int // k is 7 throughout
		f32, pre   bool
		a, b       packMode
		wantPacked int
	}
	const k = 7
	rows := []row{
		// float64: A is read in place in both orientations; B unless it is
		// stored transposed. Raggedness costs the ragged tile or panel only.
		{m: 8, n: 16},
		{at: true, m: 8, n: 16},
		{m: 9, n: 16, a: packEdge, wantPacked: 1 * k},
		{at: true, m: 11, n: 16, a: packEdge, wantPacked: 3 * k},
		{m: 8, n: 17, b: packEdge, wantPacked: 1 * k},
		{at: true, m: 8, n: 23, b: packEdge, wantPacked: 7 * k},
		{m: 5, n: 9, a: packEdge, b: packEdge, wantPacked: 2 * k},
		{bt: true, m: 8, n: 16, b: packBlock, wantPacked: 16 * k},
		{bt: true, m: 8, n: 17, b: packBlock, wantPacked: 17 * k},
		{at: true, bt: true, m: 6, n: 16, a: packEdge, b: packBlock, wantPacked: (2 + 16) * k},
		// A's share is moved once per nc-wide column block.
		{m: 5, n: 2 * gemmNC, a: packEdge, wantPacked: 2 * 1 * k},
		// float32 narrows every element; a prepacked B was narrowed ahead
		// of time.
		{f32: true, m: 8, n: 16, a: packBlock, b: packBlock, wantPacked: (8 + 16) * k},
		{f32: true, m: 9, n: 17, a: packBlock, b: packBlock, wantPacked: (9 + 17) * k},
		{f32: true, bt: true, m: 8, n: 16, a: packBlock, b: packBlock, wantPacked: (8 + 16) * k},
		{f32: true, at: true, m: 8, n: 16, a: packBlock, b: packBlock, wantPacked: (8 + 16) * k},
		{f32: true, pre: true, m: 8, n: 16, a: packBlock, wantPacked: 8 * k},
		{f32: true, pre: true, m: 9, n: 17, a: packBlock, wantPacked: 9 * k},
	}
	for _, r := range rows {
		g := gemmSpec{m: r.m, k: k, n: r.n, at: r.at, bt: r.bt}
		pl, nr := planPanels[float64](&g, r.pre), gemmNR
		if r.f32 {
			pl, nr = planPanels[float32](&g, r.pre), gemmNR32
		}
		if pl != (panelPlan{r.a, r.b}) {
			t.Errorf("%+v: plan %+v", r, pl)
		}
		if got := pl.packedElems(&g, nr); got != r.wantPacked {
			t.Errorf("%+v: %d packed elements, want %d", r, got, r.wantPacked)
		}
	}

	// The rule behind the rows, over every residue: in float64 A is never
	// packed beyond a ragged last row tile, B only when it is transposed or
	// ragged; neither depends on the other operand.
	for _, at := range []bool{false, true} {
		for _, bt := range []bool{false, true} {
			for m := 1; m <= 2*gemmMR; m++ {
				for n := 1; n <= 2*gemmNR; n++ {
					pl := planPanels[float64](&gemmSpec{m: m, k: k, n: n, at: at, bt: bt}, false)
					wantA, wantB := packNone, packNone
					if m%gemmMR != 0 {
						wantA = packEdge
					}
					if bt {
						wantB = packBlock
					} else if n%gemmNR != 0 {
						wantB = packEdge
					}
					if pl.a != wantA || pl.b != wantB {
						t.Errorf("f64 at=%v bt=%v m=%d n=%d: plan %+v, want {%d %d}", at, bt, m, n, pl, wantA, wantB)
					}
				}
			}
		}
	}
}

// TestProductsSteadyStateAllocs pins every operand orientation at zero heap
// allocations per product on both sides of the size split: small products,
// whose panels (where the plan packs anything) live on the stack, and
// products whose B block outgrows the stack panel and draw from the pool —
// including the float64 ones that pack nothing and so touch neither — with
// an epilogue where the entry takes one, and the row-accumulate.
func TestProductsSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // row-parallel dispatch spawns goroutines
	for _, sh := range [][3]int{{16, 8, 16}, {17, 40, 9}, {40, 300, 72}, {37, 300, 70}} {
		m, k, n := sh[0], sh[1], sh[2]
		mat := func(rows, cols int) *Tensor {
			x := New(rows, cols)
			fill(x, float64(rows))
			return x
		}
		heads := func(rows, cols int) View { return HeadView(mat(rows, 2*cols).Reshape(1, rows, 2*cols), 2) }
		d, x, xT, w, wT := mat(m, n), mat(m, k), mat(k, m), mat(k, n), mat(n, k)
		res, bias := mat(m, n), make([]float64, n)
		pb := PackB32(w)
		dv, xv, xTv, wv, wTv := heads(m, n), heads(m, k), heads(k, m), heads(k, n), heads(n, k)
		for name, call := range map[string]func(){
			"MatMulInto":            func() { MatMulInto(d, x, w) },
			"MatMulTInto":           func() { MatMulTInto(d, x, wT) },
			"TMatMulInto":           func() { TMatMulInto(d, xT, w) },
			"TMatMulAccInto":        func() { TMatMulAccInto(d, xT, w) },
			"MatMulF32Into":         func() { MatMulF32Into(d, x, w) },
			"AffineInto":            func() { AffineInto(d.Data, n, x, w, false, Epilogue{Bias: bias, Res: res.Data, ResLd: n}) },
			"AffineInto^T":          func() { AffineInto(d.Data, n, x, wT, true, Epilogue{Res: res.Data[:n]}) },
			"AffinePackedF32Into":   func() { AffinePackedF32Into(d.Data, n, x, pb, Epilogue{Bias: bias, Res: res.Data[:n]}) },
			"AccumRows":             func() { AccumRows(bias, res.Data, n, m, nil) },
			"AccumRows weighted":    func() { AccumRows(bias, res.Data, n, m, res.Data[:m]) },
			"BatchedMatMulInto":     func() { BatchedMatMulInto(dv, xv, wv, 0.5) },
			"BatchedMatMulTInto":    func() { BatchedMatMulTInto(dv, xv, wTv, 0.5) },
			"BatchedTMatMulInto":    func() { BatchedTMatMulInto(dv, xTv, wv, 0.5) },
			"BatchedMatMulF32Into":  func() { BatchedMatMulF32Into(dv, xv, wv, 0.5) },
			"BatchedMatMulTF32Into": func() { BatchedMatMulTF32Into(dv, xv, wTv, 0.5) },
		} {
			call() // warm the pool
			if got := testing.AllocsPerRun(10, call); got != 0 {
				t.Errorf("%s %v: %.1f allocations per product", name, sh, got)
			}
		}
	}
}
