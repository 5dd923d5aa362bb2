package tensor

import "fmt"

// Transpose2D and Transpose2DInto are the tests' transpose: the product
// tests build their reference operands with it; nothing outside the tests
// needs one.

// Transpose2DInto computes dst = t^T for a rank-2 tensor; dst is [N,M]
// (allocated when nil). It returns dst.
func Transpose2DInto(dst, t *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires rank 2, got %v", t.Shape))
	}
	m, n := t.Shape[0], t.Shape[1]
	dst = ensureDst("Transpose2DInto", dst, n, m)
	mustNotAlias("Transpose2DInto", dst, t)
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst.Data[j*m+i] = v
		}
	}
	return dst
}

// Transpose2D returns the transpose of a rank-2 tensor; the allocating
// wrapper over Transpose2DInto.
func Transpose2D(t *Tensor) *Tensor { return Transpose2DInto(nil, t) }
