package tensor

import (
	"fmt"
	"math"
)

// AdamWCoeffs are the scalars of one AdamW update: the learning rate, the
// moment decays, epsilon, the decoupled weight decay, and the bias
// corrections C1 = 1 - Beta1^t and C2 = 1 - Beta2^t of update t.
type AdamWCoeffs struct {
	LR, Beta1, Beta2, Eps, WeightDecay, C1, C2 float64
}

// AdamW applies one AdamW update to the parameter w from its gradient g and
// its moments m and v, element by element:
//
//	m = b1*m + (1-b1)*g
//	v = b2*v + ((1-b2)*g)*g
//	w = w - lr*((m/c1)/(sqrt(v/c2)+eps) + wd*w)
//
// with every product, quotient and square root rounded on its own and none
// contracted into a sum. The four slices must have the same length and must
// not overlap. Where the CPU has AVX2 it runs in assembly, four elements per
// step (the divider bounds it, so wider registers would buy nothing); the
// result is adamwGo's bit for bit.
//
// dchag:hotpath — every parameter, every optimizer step; it performs no heap
// allocation.
func AdamW(w, m, v, g []float64, c AdamWCoeffs) {
	n := len(w)
	if len(m) != n || len(v) != n || len(g) != n {
		panic(fmt.Sprintf("tensor: AdamW of %d weights with %d, %d moments and %d gradients", n, len(m), len(v), len(g)))
	}
	if n == 0 {
		return
	}
	if useSIMD {
		adamwAVX2(&w[0], &m[0], &v[0], &g[0], n, c.Beta1, 1-c.Beta1, c.Beta2, 1-c.Beta2, c.C1, c.C2, c.Eps, c.WeightDecay, c.LR)
		return
	}
	adamwGo(w, m, v, g, c)
}

// adamwGo is AdamW's Go twin. The conversions round the products that feed
// a sum, as the assembly's separate multiplies and adds round, so a compiler
// that fuses multiply-adds cannot contract them.
func adamwGo(w, m, v, g []float64, c AdamWCoeffs) {
	b1c, b2c := 1-c.Beta1, 1-c.Beta2
	m, v, g = m[:len(w)], v[:len(w)], g[:len(w)]
	for j, wj := range w {
		gj := g[j]
		mj := float64(c.Beta1*m[j]) + float64(b1c*gj)
		vj := float64(c.Beta2*v[j]) + float64(b2c*gj*gj)
		m[j], v[j] = mj, vj
		w[j] = wj - float64(c.LR*(mj/c.C1/(math.Sqrt(vj/c.C2)+c.Eps)+float64(c.WeightDecay*wj)))
	}
}
