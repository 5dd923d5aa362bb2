package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// The pooled attention pass: the channel aggregators' softmax(q k^T/sqrt(Dh))
// averaged over the query rows, forward and backward, one location at a time
// with every intermediate of that location held in per-worker scratch. Per
// location n and head h, with Tq query rows i, Tk key rows j and Dh lanes d:
//
//	S[i,j]  = alpha * chain_d q[i,d]*k[j,d]
//	P[i,:]  = softmax(S[i,:])
//	pbar[j] = (P[0,j] + P[1,j] + ... + P[Tq-1,j]) * (1/Tq)
//	cbar[d] = sum_j fl(pbar[j]*v[j,d])
//
// and from the gradient dc of cbar:
//
//	dv[j,d]    = pbar[j]*dc[d]
//	dpbar[j]   = (sum_d fl(dc[d]*v[j,d])) * (1/Tq)
//	dot[i]     = sum_j fl(P[i,j]*dpbar[j])
//	dS[i,j]    = P[i,j]*(dpbar[j] - dot[i])
//	dq[i,d]    = alpha * chain_j dS[i,j]*k[j,d]
//	dk[j,d]    = alpha * chain_i dS[i,j]*q[i,d]
//
// A chain is one FMA per term, index ascending from +0, within 256-deep
// blocks whose scaled results are added in order: the product driver's
// summation contract, so the three chains equal the batched products they
// replace bit for bit. Every sum runs index ascending from +0 and the softmax
// row sum in softmaxRowsAVX2's four lanes, so a result is a function of its
// location's rows alone. The softmax, pooling and score-gradient steps are
// spelled twice: AVX2+FMA assembly (attn_amd64.s; the softmax's
// exponentials on eight-lane vectors where the CPU has AVX-512F), which
// vectorises across key rows, query rows and the Dh lanes, never along a sum,
// and a Go twin for every other shape and machine. The chains run the product
// kernel on whole tiles and their Go twin on the rest (chain).
// DESIGN.md "Channel aggregation: pooled attention" has the derivation.

// pooledShape is the geometry of one pass: N locations of H heads, Tq query
// and Tk key rows, Dh lanes per head and rows E = H*Dh apart.
type pooledShape struct {
	n, h, tq, tk, dh, e int
	simd                bool // the assembly spelling runs (Dh a multiple of 4)
}

// headViewShape checks that x is a HeadView and returns (N, H, T, Dh).
func headViewShape(op, name string, x View) (n, h, t, dh int) {
	if x.inner < 1 || x.innerStride != x.cols || x.ld != x.inner*x.cols || x.outerStride != x.rows*x.ld {
		panic(fmt.Sprintf("tensor: %s: %s is not a HeadView", op, name))
	}
	return x.outer, x.inner, x.rows, x.cols
}

// pooledGeometry validates the head views of one pass and returns its shape.
func pooledGeometry(op string, q, k, v View) pooledShape {
	n, h, tq, dh := headViewShape(op, "q", q)
	kn, kh, tk, kdh := headViewShape(op, "k", k)
	vn, vh, vt, vdh := headViewShape(op, "v", v)
	if kn != n || vn != n || kh != h || vh != h || kdh != dh || vdh != dh || vt != tk || tq < 1 || tk < 1 || dh < 1 {
		panic(fmt.Sprintf("tensor: %s shape mismatch: q %dx%dx[%d,%d], k %dx%dx[%d,%d], v %dx%dx[%d,%d]",
			op, n, h, tq, dh, kn, kh, tk, kdh, vn, vh, vt, vdh))
	}
	return pooledShape{n: n, h: h, tq: tq, tk: tk, dh: dh, e: h * dh, simd: useSIMD && dh%4 == 0}
}

// mustShape panics unless t has exactly the given shape.
func mustShape(op, name string, t *Tensor, shape ...int) {
	ok := t != nil && len(t.Shape) == len(shape)
	for i := 0; ok && i < len(shape); i++ {
		ok = t.Shape[i] == shape[i]
	}
	if !ok {
		panic(fmt.Sprintf("tensor: %s: %s must be %v", op, name, append([]int(nil), shape...)))
	}
}

func round4(x int) int { return (x + 3) &^ 3 }

// PooledAttention runs the forward pass over the head views q [Tq,Dh] and
// k, v [Tk,Dh] (HeadView of [N,T,H*Dh] tensors; alpha is the score scale):
// cbar [N,E] receives the pooled context and pbar [N,H,Tk] the pooled map,
// which PooledAttentionBackward reads. p, when non-nil, is [N,H,Tq,Tk]: it
// receives the softmax map for the backward, or with scored it holds the
// scores alpha*q k^T on entry (computed elsewhere, as float32 inference
// does) and the pass starts at the softmax, overwriting them with the map.
// With p nil nothing of the map's size is written.
//
// dchag:hotpath — every channel aggregation, every step and every served
// micro-batch; it performs no heap allocation while it runs on its caller.
func PooledAttention(cbar, pbar, p *Tensor, q, k, v View, alpha float64, scored bool) {
	const op = "PooledAttention"
	g := pooledGeometry(op, q, k, v)
	mustShape(op, "cbar", cbar, g.n, g.e)
	mustShape(op, "pbar", pbar, g.n, g.h, g.tk)
	var pm []float64
	if p != nil {
		mustShape(op, "p", p, g.n, g.h, g.tq, g.tk)
		pm = p.Data
	} else if scored {
		panic("tensor: PooledAttention: scored needs the scores in p")
	}
	for _, s := range [][]float64{q.data, k.data, v.data} {
		if overlaps(cbar.Data, s) || overlaps(pbar.Data, s) || overlaps(pm, s) {
			panic("tensor: PooledAttention: an output aliases an operand")
		}
	}
	if g.n == 0 {
		return
	}
	inProduct.Add(1)
	defer inProduct.Add(-1)
	if serialDispatch(g.n, g.n*g.h*g.tq*g.tk*g.dh) {
		pooledForwardRange(&g, cbar.Data, pbar.Data, pm, q.data, k.data, v.data, alpha, scored, 0, g.n)
		return
	}
	spec := g // the closure's copy; g itself stays on this stack
	parallelOverRows(g.n, func(lo, hi int) {
		pooledForwardRange(&spec, cbar.Data, pbar.Data, pm, q.data, k.data, v.data, alpha, scored, lo, hi)
	})
}

// PooledAttentionBackward maps the gradient dcbar [N,E] of PooledAttention's
// cbar to dq, dk and dv, head views shaped like q, k and v, reading the
// forward's pbar and map p, which it leaves intact. Each gradient may be
// exactly its operand (dq the very view q, and so on): the pass then writes
// it over the operand, which a location's head reads for the last time
// before its gradient is stored (a head's q rows are copied to the scratch
// first, since the dK chain reads them after the dQ chain has stored), with
// the bits of a pass into separate buffers. Any other overlap panics.
//
// dchag:hotpath — every channel aggregation backward; it performs no heap
// allocation while it runs on its caller.
func PooledAttentionBackward(dq, dk, dv View, dcbar, pbar, p *Tensor, q, k, v View, alpha float64) {
	const op = "PooledAttentionBackward"
	g := pooledGeometry(op, q, k, v)
	if pooledGeometry(op, dq, dk, dv) != g {
		panic("tensor: PooledAttentionBackward: gradient views differ from q, k, v")
	}
	mustShape(op, "dcbar", dcbar, g.n, g.e)
	mustShape(op, "pbar", pbar, g.n, g.h, g.tk)
	mustShape(op, "p", p, g.n, g.h, g.tq, g.tk)
	for i, d := range [3][]float64{dq.data, dk.data, dv.data} {
		for j, s := range [6][]float64{q.data, k.data, v.data, dcbar.Data, pbar.Data, p.Data} {
			if overlaps(d, s) && !(i == j && sameSlice(d, s)) {
				panic("tensor: PooledAttentionBackward: a gradient aliases an operand")
			}
		}
	}
	if g.n == 0 {
		return
	}
	inProduct.Add(1)
	defer inProduct.Add(-1)
	if serialDispatch(g.n, 3*g.n*g.h*g.tq*g.tk*g.dh) {
		pooledBackwardRange(&g, dq.data, dk.data, dv.data, dcbar.Data, pbar.Data, p.Data, q.data, k.data, v.data, alpha, 0, g.n)
		return
	}
	spec := g
	parallelOverRows(g.n, func(lo, hi int) {
		pooledBackwardRange(&spec, dq.data, dk.data, dv.data, dcbar.Data, pbar.Data, p.Data, q.data, k.data, v.data, alpha, lo, hi)
	})
}

// pooledForwardRange runs locations [lo,hi) of the forward pass on one
// scratch buffer: per location the packed k^T of every head (E x TkP), per
// head the scores (Tq x TkP) of the assembly spelling and their per-row
// maxima, then reciprocal sums. TkP is Tk padded to whole 8-wide panels, so
// that kernF64 takes every column of the score chain's whole four-row tiles
// (chain); the padding columns are zero in k^T and their scores never read.
func pooledForwardRange(g *pooledShape, cbar, pbar, pm, q, k, v []float64, alpha float64, scored bool, lo, hi int) {
	tq, tk, dh, e := g.tq, g.tk, g.dh, g.e
	tkp := (tk + gemmNR - 1) &^ (gemmNR - 1)
	kt, sz := 0, e*tkp
	s := sz
	sz += tq * tkp
	rowInv := sz
	sz += tq
	scratch := DefaultPool.GetTensor(sz)
	w := scratch.Data
	inv := 1 / float64(tq)
	// The softmax's exponentials take eight-lane vectors on AVX-512 hosts,
	// except over scores held in the map (in place, rows Tk apart) with a
	// ragged Tk: there a row's masked ZMM tail store overlaps the next
	// row's loads, which then waited for it, and one head's pass ran slower
	// than on YMM (Tk = 4 and 12, timed while step 2 swept the rows in
	// order, before it took even rows, then odd ones; DESIGN.md has the
	// times).
	wide := useAVX512 && (!scored || tk%8 == 0)
	for n := lo; n < hi; n++ {
		if g.simd && !scored {
			packKT(w[kt:], k[n*tk*e:], e, tk, tkp)
		}
		for h := 0; h < g.h; h++ {
			qh, kh, vh := q[n*tq*e+h*dh:], k[n*tk*e+h*dh:], v[n*tk*e+h*dh:]
			// Where the scores come from and where the map goes: the map for
			// the backward, or in place in the scratch scores on inference.
			src, sld := w[s:], tkp
			dst, dld := w[s:], tkp
			if pm != nil {
				dst, dld = pm[(n*g.h+h)*tq*tk:], tk
				if scored {
					src, sld = dst, tk
				}
			}
			if !scored {
				if g.simd {
					chain(qh, e, 1, w[kt+h*dh*tkp:], tkp, 1, w[s:], tkp, tq, dh, tkp, alpha)
				} else {
					chain(qh, e, 1, kh, 1, e, w[s:], tkp, tq, dh, tk, alpha)
				}
			}
			pbh, cbh := pbar[(n*g.h+h)*tk:], cbar[n*e+h*dh:]
			if g.simd {
				softmaxPoolAVX2(&src[0], sld, &dst[0], dld, tq, tk, &pbh[0], &vh[0], e, dh, &cbh[0], &w[rowInv], inv, wide)
			} else {
				softmaxPoolGo(src, sld, dst, dld, tq, tk, pbh, vh, e, dh, cbh, inv)
			}
		}
	}
	DefaultPool.PutTensor(scratch)
}

// packKT writes the Tk key rows of one location (E wide, ld apart)
// transposed into kt, E rows of tkp with the columns past Tk zeroed: head h's
// k^T is the Dh rows from h*Dh.
func packKT(kt, kn []float64, e, tk, tkp int) {
	j := 0
	for ; j+4 <= tk; j += 4 {
		packT4F64(&kt[j], &kn[j*e], e, e, tkp)
	}
	for d := 0; d < e; d++ {
		row := kt[d*tkp : (d+1)*tkp]
		for jj := j; jj < tk; jj++ {
			row[jj] = kn[jj*e+d]
		}
		clear(row[tk:])
	}
}

// sameSlice reports whether x and y are one slice: the same first element
// and the same length.
func sameSlice(x, y []float64) bool {
	return len(x) == len(y) && unsafe.SliceData(x) == unsafe.SliceData(y)
}

// pooledBackwardRange runs locations [lo,hi) of the backward pass on one
// scratch buffer: dS (Tq4 x Tk4), dpbar (Tk4), the row dots (Tq4), a zero
// row that stands in for the rows past the end of a four-row group, and the
// head's q rows (Tq x Dh), which the dK chain reads from there. Per head, v
// is read for the last time before dv is stored (poolBwdAVX2's sweeps), k by
// the dQ chain and q by the copy before it, so each gradient may be stored
// over its operand.
func pooledBackwardRange(g *pooledShape, dq, dk, dv, dcbar, pbar, pm, q, k, v []float64, alpha float64, lo, hi int) {
	tq, tk, dh, e := g.tq, g.tk, g.dh, g.e
	tk4 := round4(tk)
	ds, sz := 0, round4(tq)*tk4
	dpb := sz
	sz += tk4
	dot := sz
	sz += round4(tq)
	zero := sz
	sz += max(tk4, dh)
	qc := sz
	sz += tq * dh
	scratch := DefaultPool.GetTensor(sz)
	w := scratch.Data
	clear(w[zero:qc])
	inv := 1 / float64(tq)
	for n := lo; n < hi; n++ {
		for h := 0; h < g.h; h++ {
			qo, ko := n*tq*e+h*dh, n*tk*e+h*dh
			ph, pbh, dc := pm[(n*g.h+h)*tq*tk:], pbar[(n*g.h+h)*tk:], dcbar[n*e+h*dh:]
			if g.simd {
				poolBwdAVX2(&ph[0], tk, &pbh[0], &dc[0], &v[ko], e, &dv[ko], &w[ds], tk4, &w[dpb], &w[dot], &w[zero], tq, tk, dh, inv)
			} else {
				poolBwdGo(ph, tk, pbh, dc, v[ko:], e, dv[ko:], w[ds:], tk4, w[dpb:], tq, tk, dh, inv)
			}
			for i := 0; i < tq; i++ {
				copy(w[qc+i*dh:qc+(i+1)*dh], q[qo+i*e:qo+i*e+dh])
			}
			chain(w[ds:], tk4, 1, k[ko:], e, 1, dq[qo:], e, tq, tk, dh, alpha)
			chain(w[ds:], 1, tk4, w[qc:], dh, 1, dk[ko:], e, tk, tq, dh, alpha)
		}
	}
	DefaultPool.PutTensor(scratch)
}

// chain computes c[r*ldc+x] = alpha * sum_p a[r*ars+p*aps]*b[p*bps+x*bxs]
// for r < rows, x < width: one FMA chain per element over p ascending from
// +0 within gemmKC-deep blocks, each block scaled by alpha and added to the
// previous ones in order — the product driver's contract, which every kernel
// tier keeps bit for bit. Where B's columns are contiguous (bxs = 1), kernF64
// takes the whole 8-wide column panels of the whole four-row tiles, on every
// vector tier: on an AVX-512 Xeon, kernF64AVX512 for the 16-wide pairs left
// the pass alone no faster and made the aggregation layer around it 6-11 %
// slower. chainGo takes what those tiles leave: the columns past the last
// whole panel, then every row past the tiles.
func chain(a []float64, ars, aps int, b []float64, bps, bxs int, c []float64, ldc, rows, depth, width int, alpha float64) {
	for p0 := 0; p0 < depth; p0 += gemmKC {
		kb := min(gemmKC, depth-p0)
		a, b, accum := a[p0*aps:], b[p0*bps:], p0 > 0
		r0, x0 := 0, 0
		if useSIMD && bxs == 1 {
			r0 = rows &^ (gemmMR - 1)
			for ; r0 > 0 && x0+gemmNR <= width; x0 += gemmNR {
				kernF64(kb, &a[0], ars, aps, &b[x0], bps, &c[x0], ldc, r0/gemmMR, alpha, accum, nil, nil, 0)
			}
		}
		if r0 > 0 && x0 < width {
			chainGo(a, ars, aps, b[x0:], bps, bxs, c[x0:], ldc, r0, kb, width-x0, alpha, accum)
		}
		if r0 < rows {
			chainGo(a[r0*ars:], ars, aps, b, bps, bxs, c[r0*ldc:], ldc, rows-r0, kb, width, alpha, accum)
		}
	}
}

// chainGo is chain one element at a time, with kernF64's arithmetic: the
// scale is rounded before the accumulate, as the kernel's separate multiply
// and add round.
func chainGo(a []float64, ars, aps int, b []float64, bps, bxs int, c []float64, ldc, rows, depth, width int, alpha float64, accum bool) {
	for r := 0; r < rows; r++ {
		for x := 0; x < width; x++ {
			acc := 0.0
			for p := 0; p < depth; p++ {
				acc = math.FMA(a[r*ars+p*aps], b[p*bps+x*bxs], acc)
			}
			s := float64(alpha * acc)
			if accum {
				s += c[r*ldc+x]
			}
			c[r*ldc+x] = s
		}
	}
}

// softmaxPoolGo is the Go spelling of softmaxPoolAVX2 for one head: the
// softmax of the Tq score rows s (sld apart) into p (pld apart; it may be s),
// in softmaxRowsGo's order, then pbar and cbar from p and the value rows v
// (vld apart).
func softmaxPoolGo(s []float64, sld int, p []float64, pld, tq, tk int, pbar, v []float64, vld, dh int, cbar []float64, inv float64) {
	for i := 0; i < tq; i++ {
		softmaxRowsGo(p[i*pld:i*pld+tk], s[i*sld:i*sld+tk], tk)
	}
	copy(pbar[:tk], p[:tk])
	for i := 1; i < tq; i++ {
		for j, x := range p[i*pld : i*pld+tk] {
			pbar[j] += x
		}
	}
	for j := range pbar[:tk] {
		pbar[j] *= inv
	}
	c := cbar[:dh]
	clear(c)
	for j, w := range pbar[:tk] {
		for d, x := range v[j*vld : j*vld+dh] {
			c[d] += float64(w * x)
		}
	}
}

// poolBwdGo is the Go spelling of poolBwdAVX2 for one head: dpbar from dc
// and the value rows and dv from pbar and dc, each value read before its dv
// is stored (dv may be v), then the score gradient dS into ds (Tq rows dsld
// apart) from the map p (rows pld apart).
func poolBwdGo(p []float64, pld int, pbar, dc, v []float64, vld int, dv, ds []float64, dsld int, dpb []float64, tq, tk, dh int, inv float64) {
	for j := 0; j < tk; j++ {
		w, vrow, dvrow := pbar[j], v[j*vld:j*vld+dh], dv[j*vld:j*vld+dh]
		s := 0.0
		for d, x := range dc[:dh] {
			s += float64(x * vrow[d])
			dvrow[d] = w * x
		}
		dpb[j] = s * inv
	}
	for i := 0; i < tq; i++ {
		pr, dr := p[i*pld:i*pld+tk], ds[i*dsld:i*dsld+tk]
		dot := 0.0
		for j, w := range pr {
			dot += float64(w * dpb[j])
		}
		for j, w := range pr {
			dr[j] = w * (dpb[j] - dot)
		}
	}
}
