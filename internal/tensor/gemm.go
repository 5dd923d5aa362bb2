package tensor

// Cache-blocked, register-tiled GEMM (GEBP / BLIS structure), one driver for
// every matrix product in the repository. gemmBlocked splits
// C = alpha*op(A)@op(B) into mc x kc x nc cache blocks, packs the current A
// and B blocks into contiguous micro-panels and walks mr x nr register tiles
// with a micro-kernel (AVX2+FMA assembly when the CPU has it, a pure-Go twin
// otherwise) that scales its tile by alpha and stores or accumulates it
// straight into the strided destination. Operands are float64 storage
// described by a base slice and a leading dimension, so per-head attention
// operands are read in place; the panel element type T selects float64 or
// float32 compute, with the f64->f32 conversion fused into packing and the
// f32->f64 conversion into the tile store.
//
// Dispatch is by size only. A product whose B block fits an L1-sized buffer
// (attention maps, E x E projections over any number of rows) packs into
// panels that live on the caller's stack; anything larger draws its panels
// from the DefaultPool. Both run the same loops and the same micro-kernel.
//
// Summation contract, for every size and on both paths: each output element
// is one FMA chain over p ascending within a kc block, the block's tile is
// scaled by alpha, and kc blocks are added in ascending order. It does not
// depend on m, n, the cache blocking, the worker count or where the panels
// live, so a column- or row-sharded product reproduces the full one bit for
// bit.

// elem is the panel element type: the arithmetic of the micro-kernel.
type elem interface{ float32 | float64 }

const (
	gemmMC   = 128 // rows of A packed per block
	gemmKC   = 256 // depth of one packed block
	gemmNC   = 512 // columns of B packed per block
	gemmMR   = 4   // micro-tile rows
	gemmNR   = 8   // micro-tile columns (f64); f32 uses 2x
	gemmNR32 = 16

	stackPanelA = 2048 // elements of the stack-resident A panel
	stackPanelB = 1024 // elements of the stack-resident B panel
)

// gemmSpec describes one product C = alpha*op(A)@op(B), or C += ... with
// accum: op(A) is m x k, op(B) is k x n. Each slice starts at its matrix's
// element (0,0) and rows are ld apart. at means a holds A^T (k rows of m), bt
// means b holds B^T (n rows of k).
type gemmSpec struct {
	m, k, n       int
	a, b, c       []float64
	lda, ldb, ldc int
	at, bt, accum bool
	alpha         float64
}

// stackPanels is the stack-resident scratch of one driver invocation: the
// packing panels of the small-product path and the edge-tile buffer.
// Declaring it zeroes it, so batched callers declare one per worker, not one
// per product.
type stackPanels[T elem] struct {
	a    [stackPanelA]T
	b    [stackPanelB]T
	tile [gemmMR * gemmNR32]float64
}

// nrOf returns the micro-tile width of the kernel computing in T.
func nrOf[T elem]() int {
	var z T
	if _, ok := any(z).(float32); ok {
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
	if serialDispatch(g.m, work) {
		gemmRows[T](g, 0, g.m, pre)
		return
	}
	spec := *g // the closure's copy; g itself stays on the caller's stack
	parallelOverRows(g.m, work, func(lo, hi int) {
		gemmRows[T](&spec, lo, hi, pre)
	})
}

// gemmRows computes destination rows [lo,hi) of one product.
func gemmRows[T elem](g *gemmSpec, lo, hi int, pre *packedB[T]) {
	var st stackPanels[T]
	gemmBlocked(g, lo, hi, pre, &st)
}

// gemmBlocked is the blocked driver for destination rows [lo,hi).
//
// dchag:hotpath — panel scratch is the caller's stack buffer or comes from
// the pool; steady state performs no heap allocation.
func gemmBlocked[T elem](g *gemmSpec, lo, hi int, pre *packedB[T], st *stackPanels[T]) {
	if g.k == 0 {
		if !g.accum {
			for i := lo; i < hi; i++ {
				clear(g.c[i*g.ldc : i*g.ldc+g.n])
			}
		}
		return
	}
	nr := nrOf[T]()
	kb0 := min(gemmKC, g.k)
	nb0 := (min(gemmNC, g.n) + nr - 1) / nr * nr

	// Small products keep both panels in L1: B's block fits the stack panel
	// and mc shrinks until A's block does too.
	ap, bp, mc := st.a[:], st.b[:], min(gemmMC, stackPanelA/kb0&^(gemmMR-1))
	var pooledA, pooledB []T // kept apart from ap/bp so the stack panels never reach the pool
	var ownerA, ownerB *Tensor
	if kb0*nb0 > stackPanelB {
		mc = gemmMC
		pooledA, ownerA = poolPanel[T]((gemmMC + gemmMR) * gemmKC)
		ap = pooledA
		if pre == nil {
			pooledB, ownerB = poolPanel[T]((gemmNC + gemmNR32) * gemmKC)
			bp = pooledB
		}
	}

	tile := st.tile[:]
	for p0 := 0; p0 < g.k; p0 += gemmKC {
		kb := min(gemmKC, g.k-p0)
		accum := g.accum || p0 > 0
		for j0 := 0; j0 < g.n; j0 += gemmNC {
			nb := min(gemmNC, g.n-j0)
			if pre == nil {
				pack(bp, g.b, g.ldb, j0, p0, nb, kb, nr, !g.bt)
			} else {
				bp = pre.panels[pre.blockOff[p0/gemmKC]+j0/nr*kb*nr:]
			}
			for i0 := lo; i0 < hi; i0 += mc {
				mb := min(mc, hi-i0)
				pack(ap, g.a, g.lda, i0, p0, mb, kb, gemmMR, g.at)
				for jr := 0; jr < nb; jr += nr {
					jb := min(nr, nb-jr)
					bpp := bp[jr*kb:]
					for ir := 0; ir < mb; ir += gemmMR {
						ib := min(gemmMR, mb-ir)
						app := ap[ir*kb:]
						c := g.c[(i0+ir)*g.ldc+j0+jr:]
						if ib == gemmMR && jb == nr {
							microKernel(kb, nr, app, bpp, c, g.ldc, g.alpha, accum)
							continue
						}
						// Edge tile: full kernel into scratch, valid region out.
						microKernel(kb, nr, app, bpp, tile, nr, g.alpha, false)
						for r := 0; r < ib; r++ {
							crow := c[r*g.ldc : r*g.ldc+jb]
							trow := tile[r*nr : r*nr+jb]
							for x, v := range trow {
								if accum {
									v += crow[x]
								}
								crow[x] = v
							}
						}
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
// panel[p*w+x] = element (g0+x, p0+p), converted to T. The grouped index runs
// over rows of A (w = mr) or columns of B (w = nr). With contig the grouped
// index is the contiguous one in memory (element (x,p) at src[p*ld+x]: A^T
// and B as stored) and packing copies row segments; otherwise it is the
// strided one (src[x*ld+p]: A and B^T as stored) and packing transposes.
// Where the CPU has AVX2 both run in assembly, four grouped indices at a
// time; the scalar loop packs the up to three left over, and everything on
// other machines.
//
// dchag:hotpath — every product packs both operands; it must not allocate.
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
// with contig, kb rows of n contiguous values, d[p*w+x] = src[p*ld+x];
// otherwise four rows of kb values, d[p*w+r] = src[r*ld+p].
func packSIMD[T elem](d *T, src *float64, ld, kb, n, w int, contig bool) {
	switch d := any(d).(type) {
	case *float64:
		if contig {
			packC4F64(d, src, ld, kb, n, w)
		} else {
			packT4F64(d, src, ld, kb, w)
		}
	case *float32:
		if contig {
			packC4F32(d, src, ld, kb, n, w)
		} else {
			packT4F32(d, src, ld, kb, w)
		}
	}
}

// microKernel computes one full mr x nr tile from packed panels and writes
// c[r*ldc+x] = alpha*tile (or += with accum), r < mr, x < nr.
func microKernel[T elem](kb, nr int, a, b []T, c []float64, ldc int, alpha float64, accum bool) {
	if useSIMD {
		switch pa := any(&a[0]).(type) {
		case *float64:
			kern4x8F64(kb, pa, any(&b[0]).(*float64), &c[0], ldc, alpha, accum)
		case *float32:
			kern4x16F32(kb, pa, any(&b[0]).(*float32), &c[0], ldc, alpha, accum)
		}
		return
	}
	kernGeneric(kb, nr, a, b, c, ldc, alpha, accum)
}

// kernGeneric is the pure-Go twin of the AVX2 micro-kernels; it keeps
// non-amd64 builds (and CPUs without AVX2) on the same packed-panel driver.
// The explicit conversion around the alpha product keeps compilers that fuse
// multiply-add from contracting it into the accumulate, which edge tiles
// (scaled into scratch, then added) could not reproduce.
func kernGeneric[T elem](kb, nr int, a, b []T, c []float64, ldc int, alpha float64, accum bool) {
	var acc [gemmMR * gemmNR32]T
	for p := 0; p < kb; p++ {
		bp := b[p*nr : p*nr+nr]
		ap := a[p*gemmMR : p*gemmMR+gemmMR]
		for r, av := range ap {
			cr := acc[r*nr : r*nr+nr]
			for j, bv := range bp {
				cr[j] += av * bv
			}
		}
	}
	for r := 0; r < gemmMR; r++ {
		crow := c[r*ldc : r*ldc+nr]
		arow := acc[r*nr : r*nr+nr]
		for j, v := range arow {
			s := float64(alpha * float64(v))
			if accum {
				s += crow[j]
			}
			crow[j] = s
		}
	}
}

// SIMDEnabled reports whether the AVX2+FMA micro-kernels are active on this
// machine. The compute benchmark records it so artifact gates can tell a
// kernel regression from a machine without the vector units.
func SIMDEnabled() bool { return useSIMD }
