package tensor

import (
	"fmt"
	"math"
)

// Cache-blocked, register-tiled GEMM (GEBP / BLIS structure), one driver for
// every matrix product in the repository. gemmBlocked splits
// C = alpha*op(A)@op(B) into mc x kc x nc cache blocks and, per column panel
// of a block, hands a whole stack of mr x nr register tiles to one
// micro-kernel call (AVX2+FMA assembly when the CPU has it, a pure-Go twin
// otherwise; in float64 on a CPU with AVX-512, one ZMM kernel call takes two
// adjacent column panels). The kernel takes its operands by address and
// stride, so it reads A as stored, A^T as stored and B as stored where they
// lie — per-head attention operands included — scales each tile by alpha and
// stores or accumulates it straight into the strided destination.
//
// Packing is the exception: pack copies operand elements into a contiguous
// panel only where they have to move, and planPanels is the one function
// that says where. That is a transposed B block (its nr columns are not
// contiguous in memory), a ragged last row tile or column panel (zero-padded
// to a full tile, so the kernel never reads or writes past an operand), and
// float32 compute, where every element is narrowed on the way: A row by row,
// B into panels per call or once ahead of time (PackB32). The panel element
// type T selects float64 or float32 compute; the f32->f64 conversion is fused
// into the tile store.
//
// Panels live on the caller's stack when the B block fits an L1-sized buffer
// (attention maps, E x E projections over any number of rows) and come from
// the DefaultPool otherwise. Both sides run the same loops and the same
// micro-kernel; a float64 product of untransposed, tile-aligned operands
// uses neither.
//
// Summation contract, for every size and wherever the operands are read
// from: each output element is one FMA chain over p ascending within a kc
// block, the block's tile is scaled by alpha, and kc blocks are added in
// ascending order. It does not depend on m, n, the cache blocking, the
// worker count, or on whether an element reached the kernel through a panel,
// so a column- or row-sharded product reproduces the full one bit for bit.
// An Epilogue is added after all of that, as the last kc block's tile is
// stored: + bias, then + residual, one rounding each.

// elem is the panel element type: the arithmetic of the micro-kernel.
type elem interface{ float32 | float64 }

const (
	gemmMC   = 128 // rows of A per block
	gemmKC   = 256 // depth of one block
	gemmNC   = 512 // columns of B per block
	gemmMR   = 4   // micro-tile rows
	gemmNR   = 8   // micro-tile columns (f64); f32 uses 2x
	gemmNR32 = 16

	stackPanelA = 2048 // elements of the stack-resident A panel
	stackPanelB = 1024 // elements of the stack-resident B panel
)

// DepthSplits writes into dst[:0] and returns the piece ends
// TMatMulAccSplitInto takes to reproduce, over compacted rows, a product
// whose depth ran over every row of a batch: compacted row r is row
// locs[r/w]*w + r%w of that product (w rows per location, locs ascending),
// and a piece ends wherever the next compacted row lies in another of its
// kc blocks. No locations give no pieces.
//
// dchag:hotpath — once per compacted weight-gradient product; it allocates
// only to grow dst.
func DepthSplits(dst, locs []int, w int) []int {
	dst = dst[:0]
	blk := -1
	for i, l := range locs {
		lo, hi := l*w, l*w+w
		for f := lo; f < hi; f = (f/gemmKC + 1) * gemmKC {
			if f/gemmKC != blk {
				if blk >= 0 {
					dst = append(dst, i*w+f-lo)
				}
				blk = f / gemmKC
			}
		}
	}
	if len(locs) > 0 {
		dst = append(dst, len(locs)*w)
	}
	return dst
}

// gemmSpec describes one product C = alpha*op(A)@op(B), or C += ... with
// accum, plus the epilogue ep: op(A) is m x k, op(B) is k x n. Each slice
// starts at its matrix's element (0,0) and rows are ld apart. at means a
// holds A^T (k rows of m), bt means b holds B^T (n rows of k).
type gemmSpec struct {
	m, k, n       int
	a, b, c       []float64
	lda, ldb, ldc int
	at, bt, accum bool
	alpha         float64
	ep            Epilogue
}

// Epilogue is what a product adds to each element of its destination as the
// kernel stores the element for the last time: C[i,j] = ((alpha*chain [+ C])
// + Bias[j]) + Res[i*ResLd+j], one rounding per add, in that order — the
// composition a product, a row-wise bias add and a residual add make as
// three passes, with two fewer passes over C. A nil part adds nothing (not a
// zero: -0 survives). It applies once, on the product's last kc block; with
// k == 0 the product is +0 and C = (+0 + Bias) + Res. Res must not overlap C.
type Epilogue struct {
	Bias  []float64 // n values, one per column; nil adds none
	Res   []float64 // the residual: row i at Res[i*ResLd:], n values; nil adds none
	ResLd int       // Res's row stride; 0 adds its one row to every row of C
}

// at returns the epilogue of the submatrix of C whose element (0,0) is (i,j).
func (ep Epilogue) at(i, j int) Epilogue {
	if ep.Bias != nil {
		ep.Bias = ep.Bias[j:]
	}
	if ep.Res != nil {
		ep.Res = ep.Res[i*ep.ResLd+j:]
	}
	return ep
}

// add applies the epilogue to v, C's element (i,j) of the submatrix ep is at.
func (ep *Epilogue) add(v float64, i, j int) float64 {
	if ep.Bias != nil {
		v += ep.Bias[j]
	}
	if ep.Res != nil {
		v += ep.Res[i*ep.ResLd+j]
	}
	return v
}

// mustFit panics unless the epilogue covers an m x n destination; c is the
// destination's backing range, which neither part may overlap.
func (ep *Epilogue) mustFit(op string, m, n int, c []float64) {
	if ep.Bias != nil && len(ep.Bias) != n {
		panic(fmt.Sprintf("tensor: %s bias has %d values for %d columns", op, len(ep.Bias), n))
	}
	if ep.Res != nil && (ep.ResLd < 0 || (ep.ResLd > 0 && ep.ResLd < n) || len(ep.Res) < (m-1)*ep.ResLd+n) {
		panic(fmt.Sprintf("tensor: %s residual of %d values at row stride %d does not cover %d x %d", op, len(ep.Res), ep.ResLd, m, n))
	}
	if overlaps(c, ep.Bias) || overlaps(c, ep.Res) {
		panic("tensor: " + op + " epilogue aliases the destination")
	}
}

// first is the address of s's first element, nil for a nil s: how an
// epilogue part reaches the assembly kernels.
func first(s []float64) *float64 {
	if s == nil {
		return nil
	}
	return &s[0]
}

// stackPanels is the stack-resident scratch of one driver invocation: the
// packing panels of the small-product side of the size split and the
// edge-tile buffer. Declaring it zeroes it, so batched callers declare one
// per worker, not one per product.
type stackPanels[T elem] struct {
	a    [stackPanelA]T
	b    [stackPanelB]T
	tile [gemmMR * gemmNR32]float64
}

// narrows reports whether the kernel computing in T narrows the float64
// operands it is given, that is whether T is float32.
func narrows[T elem]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

// nrOf returns the micro-tile width of the kernel computing in T.
func nrOf[T elem]() int {
	if narrows[T]() {
		return gemmNR32
	}
	return gemmNR
}

// packedB holds a K x N matrix prepacked into the B panels of the kernel
// computing in T, one run of panels per kc-deep block.
type packedB[T elem] struct {
	K, N     int
	panels   []T
	blockOff []int // panel offset of each kc-deep block
}

// packMode says how much of one operand the driver copies into panels.
type packMode uint8

const (
	packNone  packMode = iota // nothing: the kernel reads the operand where it lies
	packEdge                  // the ragged last row tile or column panel, zero-padded
	packBlock                 // every block
)

// panelPlan is what pack moves for one product.
type panelPlan struct{ a, b packMode }

// planPanels decides, from the operands' orientation, raggedness and element
// type alone, which parts of a product pass through pack. Narrowing moves
// everything (a prepacked B was moved ahead of time). In float64, A is read
// in place in either orientation and only a ragged last row tile is padded
// into a panel; B is read in place unless it is stored transposed, when its
// nr columns are not contiguous, or its last column panel is ragged.
//
// dchag:hotpath — run once per driver invocation; it must not allocate.
func planPanels[T elem](g *gemmSpec, prepacked bool) panelPlan {
	var pl panelPlan
	switch {
	case narrows[T]():
		pl.a = packBlock
	case g.m%gemmMR != 0:
		pl.a = packEdge
	}
	switch {
	case prepacked:
	case narrows[T](), g.bt:
		pl.b = packBlock
	case g.n%nrOf[T]() != 0:
		pl.b = packEdge
	}
	return pl
}

// packedElems is the number of operand elements pl moves through pack for
// the whole product g on one goroutine: B's share once, A's once per nc-wide
// column block.
func (pl panelPlan) packedElems(g *gemmSpec, nr int) int {
	share := func(mode packMode, extent, w int) int {
		switch mode {
		case packEdge:
			return extent % w
		case packBlock:
			return extent
		}
		return 0
	}
	colBlocks := (g.n + gemmNC - 1) / gemmNC
	return g.k * (share(pl.a, g.m, gemmMR)*colBlocks + share(pl.b, g.n, nr))
}

// gemm2D runs one product, splitting destination rows across goroutines when
// it is large enough. pre, when non-nil, holds B prepacked (see PackB32).
//
// dchag:hotpath — the funnel for every rank-2 matrix product in the
// repository; it must not allocate (panel scratch is stack or pool).
func gemm2D[T elem](g *gemmSpec, pre *packedB[T]) {
	if g.m == 0 || g.n == 0 {
		return
	}
	work := g.m * g.k * g.n
	inProduct.Add(1)
	defer inProduct.Add(-1)
	if serialDispatch(g.m, work) {
		gemmRows[T](g, 0, g.m, pre)
		return
	}
	spec := *g // the closure's copy; g itself stays on the caller's stack
	parallelOverRows(g.m, func(lo, hi int) {
		gemmRows[T](&spec, lo, hi, pre)
	})
}

// gemmRows computes destination rows [lo,hi) of one product: the product of
// those rows of op(A), on its own stack panels.
func gemmRows[T elem](g *gemmSpec, lo, hi int, pre *packedB[T]) {
	var st stackPanels[T]
	rows := *g
	rows.m = hi - lo
	rows.c = g.c[lo*g.ldc:]
	rows.ep = g.ep.at(lo, 0)
	if g.at {
		rows.a = g.a[lo:]
	} else {
		rows.a = g.a[lo*g.lda:]
	}
	gemmBlocked(&rows, pre, &st)
}

// gemmBlocked is the blocked driver.
//
// dchag:hotpath — panel scratch is the caller's stack buffer or comes from
// the pool; steady state performs no heap allocation.
func gemmBlocked[T elem](g *gemmSpec, pre *packedB[T], st *stackPanels[T]) {
	if g.k == 0 {
		for i := 0; i < g.m; i++ {
			crow := g.c[i*g.ldc : i*g.ldc+g.n]
			for j, v := range crow {
				if !g.accum {
					v = 0
				}
				crow[j] = g.ep.add(v, i, j)
			}
		}
		return
	}
	nr := nrOf[T]()
	pl := planPanels[T](g, pre != nil)
	kb0 := min(gemmKC, g.k)
	nb0 := (min(gemmNC, g.n) + nr - 1) / nr * nr

	// The size split: a product whose B block fits the stack panel keeps its
	// panels on the stack, and mc shrinks until A's block is as small; a
	// larger one draws what its plan packs from the pool.
	small := kb0*nb0 <= stackPanelB
	mc := gemmMC
	if small {
		mc = min(gemmMC, stackPanelA/kb0&^(gemmMR-1))
	}
	ap, bp := st.a[:], st.b[:]
	var pooledA, pooledB []T // kept apart from ap/bp so the stack panels never reach the pool
	var ownerA, ownerB *Tensor
	if pl.a == packBlock && !small {
		pooledA, ownerA = poolPanel[T](gemmMC * kb0)
		ap = pooledA
	}
	needB := 0
	switch pl.b {
	case packEdge:
		needB = kb0 * nr
	case packBlock:
		needB = kb0 * nb0
	}
	if needB > stackPanelB {
		pooledB, ownerB = poolPanel[T](needB)
		bp = pooledB
	}

	// Where T is the storage type the kernel reads the operands in place; where
	// it narrows these are nil, and the plan packs both.
	ad, _ := any(g.a).([]T)
	bd, _ := any(g.b).([]T)
	tile := st.tile[:]
	for p0 := 0; p0 < g.k; p0 += gemmKC {
		kb := min(gemmKC, g.k-p0)
		accum := g.accum || p0 > 0
		var ep Epilogue // the last block's store adds g.ep
		if p0+kb == g.k {
			ep = g.ep
		}
		for j0 := 0; j0 < g.n; j0 += gemmNC {
			nb := min(gemmNC, g.n-j0)
			// B's block: column panel jr starts at bs[jr*bpan], its rows bps
			// apart. In place, a ragged last panel goes through bp instead.
			bs, bps, bpan := bp, nr, kb
			switch {
			case pre != nil:
				bs = pre.panels[pre.blockOff[p0/gemmKC]+j0/nr*kb*nr:]
			case pl.b == packBlock:
				pack(bp, g.b, g.ldb, j0, p0, nb, kb, nr, !g.bt)
			default:
				bs, bps, bpan = bd[p0*g.ldb+j0:], g.ldb, 1
				if pl.b == packEdge && j0+nb == g.n {
					pack(bp, g.b, g.ldb, g.n&^(nr-1), p0, g.n%nr, kb, nr, true)
				}
			}
			for i0 := 0; i0 < g.m; i0 += mc {
				mb := min(mc, g.m-i0)
				full := mb &^ (gemmMR - 1)
				// A's full row tiles: element (i, p) at as[i*ars+p*aps]. A
				// ragged last tile is padded into the panel edge.
				var as []T
				var ars, aps int
				edge := ap
				switch {
				case pl.a == packBlock: // narrowed row by row: row i of ap holds its kb values
					as, ars, aps, edge = ap, kb, 1, ap[full*kb:]
					if full > 0 {
						pack(ap, g.a, g.lda, p0, i0, kb, full, kb, !g.at)
					}
				case g.at:
					as, ars, aps = ad[p0*g.lda+i0:], 1, g.lda
				default:
					as, ars, aps = ad[i0*g.lda+p0:], g.lda, 1
				}
				if full < mb {
					pack(edge, g.a, g.lda, i0+full, p0, mb-full, kb, gemmMR, g.at)
				}
				for jr := 0; jr < nb; jr += nr {
					jb := min(nr, nb-jr)
					b, bps := bs[jr*bpan:], bps
					if jb < nr && pl.b == packEdge {
						b, bps = bp, nr
					}
					c := g.c[i0*g.ldc+j0+jr:]
					e := ep.at(i0, j0+jr)
					if jb == nr {
						b2 := 0 // the next panel's offset in b where two full panels are adjacent
						if jr+2*nr <= nb {
							b2 = nr * bpan
						}
						if full > 0 {
							kernel(kb, nr, as, ars, aps, b, bps, b2, c, g.ldc, full/gemmMR, g.alpha, accum, e)
						}
						if b2 != 0 {
							if full < mb {
								edgeTile(kb, nr, edge, 1, gemmMR, b, bps, c[full*g.ldc:], g.ldc, mb-full, nr, g.alpha, accum, e.at(full, 0), tile)
							}
							jr += nr
							b, c, e = b[b2:], c[nr:], e.at(0, nr)
						}
					} else {
						for ir := 0; ir < full; ir += gemmMR {
							edgeTile(kb, nr, as[ir*ars:], ars, aps, b, bps, c[ir*g.ldc:], g.ldc, gemmMR, jb, g.alpha, accum, e.at(ir, 0), tile)
						}
					}
					if full < mb {
						edgeTile(kb, nr, edge, 1, gemmMR, b, bps, c[full*g.ldc:], g.ldc, mb-full, jb, g.alpha, accum, e.at(full, 0), tile)
					}
				}
			}
		}
	}
	if pooledA != nil {
		releasePanel(pooledA, ownerA)
	}
	if pooledB != nil {
		releasePanel(pooledB, ownerB)
	}
}

// edgeTile computes one ragged tile, ib <= mr rows by jb <= nr columns: the
// full kernel into scratch, the valid corner out, where the epilogue ep
// (positioned at the tile) is added. Its operands are full tiles (padded by
// pack where the matrix ends), so the kernel stays inside them.
func edgeTile[T elem](kb, nr int, a []T, ars, aps int, b []T, bps int, c []float64, ldc, ib, jb int, alpha float64, accum bool, ep Epilogue, tile []float64) {
	kernel(kb, nr, a, ars, aps, b, bps, 0, tile, nr, 1, alpha, false, Epilogue{})
	for r := 0; r < ib; r++ {
		crow := c[r*ldc : r*ldc+jb]
		trow := tile[r*nr : r*nr+jb]
		for x, v := range trow {
			if accum {
				v += crow[x]
			}
			crow[x] = ep.add(v, r, x)
		}
	}
}

// poolPanel draws an n-element packing panel from the DefaultPool. owner is
// the pooled tensor behind a float64 panel (nil for float32).
func poolPanel[T elem](n int) (buf []T, owner *Tensor) {
	switch p := any(&buf).(type) {
	case *[]float64:
		owner = DefaultPool.GetTensor(n)
		*p = owner.Data
	case *[]float32:
		*p = DefaultPool.Get32(n)
	}
	return buf, owner
}

// releasePanel returns a panel drawn by poolPanel.
func releasePanel[T elem](buf []T, owner *Tensor) {
	if p, ok := any(&buf).(*[]float32); ok {
		DefaultPool.Put32(*p)
		return
	}
	DefaultPool.PutTensor(owner)
}

// pack lays a gb x kb slab of a strided float64 matrix out as ceil(gb/w)
// micro-panels, each kb groups of w values with the last panel zero-padded:
// panel[p*w+x] = element (g0+x, p0+p), converted to T. Only what planPanels
// names passes through here. With contig the grouped index is the contiguous
// one in memory (element (x,p) at src[p*ld+x]) and packing copies row
// segments: B as stored into nr-wide panels, a ragged tile of A^T, and the
// row-wise narrowing of an A block, which is one panel as wide as the block
// is deep, the grouped index running over depth. Otherwise it is the strided
// one (src[x*ld+p]) and packing transposes: B^T as stored, a ragged tile of
// A, and the narrowing of an A^T block. A float64 row segment is a copy, on
// every machine. Where the CPU has AVX2 the narrowing and the transposes run
// in assembly, four grouped indices at a time; the scalar loop packs the up
// to three left over, and everything on other machines.
//
// dchag:hotpath — it must not allocate.
func pack[T elem](dst []T, src []float64, ld, g0, p0, gb, kb, w int, contig bool) {
	xs, ps := ld, 1 // element (x,p) at src[x*xs+p*ps]
	if contig {
		xs, ps = 1, ld
	}
	for x0 := 0; x0 < gb; x0 += w {
		wb := min(w, gb-x0)
		d := dst[x0*kb : x0*kb+kb*w]
		if wb < w {
			clear(d)
		}
		if d64, ok := any(&d).(*[]float64); ok && contig {
			for p := 0; p < kb; p++ {
				copy((*d64)[p*w:p*w+wb], src[g0+x0+(p0+p)*ld:])
			}
			continue
		}
		x := 0
		for useSIMD && x+4 <= wb {
			n := 4
			if contig {
				n = wb &^ 3 // the whole group in one call
			}
			packSIMD(&d[x], &src[(g0+x0+x)*xs+p0*ps], ld, kb, n, w, contig)
			x += n
		}
		for ; x < wb; x++ {
			s := src[(g0+x0+x)*xs+p0*ps:]
			for p := 0; p < kb; p++ {
				d[p*w+x] = T(s[p*ps])
			}
		}
	}
}

// packSIMD dispatches one assembly packing call on the panel element type:
// with contig (float32 panels only: pack copies float64 row segments), kb
// rows of n contiguous values, d[p*w+x] = src[p*ld+x]; otherwise four rows
// of kb values, d[p*w+r] = src[r*ld+p].
func packSIMD[T elem](d *T, src *float64, ld, kb, n, w int, contig bool) {
	switch d := any(d).(type) {
	case *float64:
		packT4F64(d, src, ld, kb, w)
	case *float32:
		if contig {
			packC4F32(d, src, ld, kb, n, w)
		} else {
			packT4F32(d, src, ld, kb, w)
		}
	}
}

// kernel computes tiles stacked mr x nr register tiles of one column panel,
// tile t from rows 4t..4t+3 of A, and writes c[i*ldc+x] = ep added to
// alpha*tile (or to alpha*tile + c with accum), i < mr*tiles, x < nr. A[i,p]
// is a[i*ars+p*aps] and B[p,x] is b[p*bps+x]: an operand as stored or a
// packed panel, the kernel cannot tell; ep is positioned at c. A nonzero b2
// adds the next full panel: B at b[b2:], C and ep nr columns on.
// kernF64AVX512 takes the two in one call; every other kernel takes them one
// after the other, so this is the one place that decides. One type switch
// and one assembly call serve the whole panel stack.
func kernel[T elem](kb, nr int, a []T, ars, aps int, b []T, bps, b2 int, c []float64, ldc, tiles int, alpha float64, accum bool, ep Epilogue) {
	if useSIMD {
		bias, res := first(ep.Bias), first(ep.Res)
		switch pa := any(&a[0]).(type) {
		case *float64:
			if useAVX512 && b2 != 0 {
				kernF64AVX512(kb, pa, ars, aps, any(&b[0]).(*float64), bps, b2, &c[0], ldc, tiles, alpha, accum, bias, res, ep.ResLd)
				return
			}
			kernF64(kb, pa, ars, aps, any(&b[0]).(*float64), bps, &c[0], ldc, tiles, alpha, accum, bias, res, ep.ResLd)
		case *float32:
			kernF32(kb, pa, ars, aps, any(&b[0]).(*float32), bps, &c[0], ldc, tiles, alpha, accum, bias, res, ep.ResLd)
		}
	} else {
		kernGeneric(kb, nr, a, ars, aps, b, bps, c, ldc, tiles, alpha, accum, ep)
	}
	if b2 != 0 {
		kernel(kb, nr, a, ars, aps, b[b2:], bps, 0, c[nr:], ldc, tiles, alpha, accum, ep.at(0, nr))
	}
}

// kernGeneric is the pure-Go twin of the micro-kernels, strides and row-tile
// loop included; it keeps non-amd64 builds (and CPUs without AVX2) on the
// same driver and the same plan. In float64 each step is math.FMA, one
// rounding as in the assembly, whatever the compiler fuses (on an amd64 CPU
// without FMA that is software FMA, ~30x slower: DESIGN.md); a float32 FMA
// through math.FMA would round twice, so the float32 twin multiplies and
// adds and is held to the float32 tolerance only. The explicit conversion
// around the alpha product keeps compilers that fuse multiply-add from
// contracting it into the accumulate, which edge tiles (scaled into scratch,
// then added) could not reproduce. The epilogue's adds follow, as in the
// assembly's store.
//
// dchag:hotpath — it must not allocate.
func kernGeneric[T elem](kb, nr int, a []T, ars, aps int, b []T, bps int, c []float64, ldc, tiles int, alpha float64, accum bool, ep Epilogue) {
	fused := !narrows[T]()
	for t := 0; t < tiles; t++ {
		a0, c0 := t*gemmMR*ars, t*gemmMR*ldc
		var acc [gemmMR * gemmNR32]T
		for p := 0; p < kb; p++ {
			bp := b[p*bps : p*bps+nr]
			for r := 0; r < gemmMR; r++ {
				av := a[a0+r*ars+p*aps]
				cr := acc[r*nr : r*nr+nr]
				if fused {
					for j, bv := range bp {
						cr[j] = T(math.FMA(float64(av), float64(bv), float64(cr[j])))
					}
				} else {
					for j, bv := range bp {
						cr[j] += av * bv
					}
				}
			}
		}
		for r := 0; r < gemmMR; r++ {
			crow := c[c0+r*ldc : c0+r*ldc+nr]
			arow := acc[r*nr : r*nr+nr]
			for j, v := range arow {
				s := float64(alpha * float64(v))
				if accum {
					s += crow[j]
				}
				crow[j] = ep.add(s, t*gemmMR+r, j)
			}
		}
	}
}

// KernelTier names the micro-kernels this machine runs: "avx512" (float64
// panel pairs on kernF64AVX512 and the exponential of softmax, GELU and the
// pooled softmax on eight-lane vectors, the rest on AVX2), "avx2" or "go"
// (the pure-Go twins). Tests and benchmarks name the tier they ran under
// with it, so a result can be told apart from a machine without the vector
// units.
func KernelTier() string {
	switch {
	case useAVX512:
		return "avx512"
	case useSIMD:
		return "avx2"
	}
	return "go"
}

// WithGoTwins runs f with every kernel on its pure-Go twin — the arithmetic
// each vector tier reproduces bit for bit, so results do not change — and
// then restores the tier the CPU probe chose. Tests of other packages run a
// layer under the twins with it, to hold it bit for bit to the vector tier;
// no other goroutine may call into the package while f runs.
func WithGoTwins(f func()) {
	defer func(simd, avx512 bool) { useSIMD, useAVX512 = simd, avx512 }(useSIMD, useAVX512)
	useSIMD, useAVX512 = false, false
	f()
}
