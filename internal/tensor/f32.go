package tensor

import "fmt"

// DType selects the arithmetic used by the no-grad inference fast path.
// Tensors always STORE float64 (the package contract that distributed
// results stay bitwise comparable to the serial reference at 1e-9); F32
// selects float32 COMPUTE inside the matrix-product kernels, with the
// f64->f32 conversion done as the operands are packed (A row by row, B into
// panels) and the f32->f64 conversion fused into the tile accumulate. The tolerance contract for F32 serving
// outputs is documented in DESIGN.md ("Compute substrate").
type DType int

const (
	// F64 is full float64 arithmetic — training and the default for serving.
	F64 DType = iota
	// F32 is the float32-compute inference path.
	F32
)

// String returns the conventional dtype name.
func (d DType) String() string {
	if d == F32 {
		return "f32"
	}
	return "f64"
}

// PackedElems reports how many operand elements one m x k x n product
// computed in d copies into panels, on one goroutine: the driver's plan (see
// gemm.go) for the given orientation, with B packed ahead of time when
// prepacked. Everything it does not count the kernel reads where it lies.
// The compute benchmark records it next to each measured shape.
func (d DType) PackedElems(m, k, n int, at, bt, prepacked bool) int {
	g := gemmSpec{m: m, k: k, n: n, at: at, bt: bt}
	if d == F32 {
		return planPanels[float32](&g, prepacked).packedElems(&g, gemmNR32)
	}
	return planPanels[float64](&g, prepacked).packedElems(&g, gemmNR)
}

// PackedB32 holds a weight matrix prepacked into the f32 kernel's B panels.
// Packing the K x N operand once at SetInferDType time hoists both the
// f64->f32 conversion and the panel shuffle out of the per-request hot loop.
type PackedB32 = packedB[float32]

// PackB32 packs a rank-2 [K,N] tensor for use as the B operand of
// AffinePackedF32Into. The returned pack is immutable and safe for
// concurrent use; it snapshots b, so repack after mutating the weights.
func PackB32(b *Tensor) *PackedB32 {
	if len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: PackB32 requires rank 2, got %v", b.Shape))
	}
	k, n := b.Shape[0], b.Shape[1]
	nPanels := (n + gemmNR32 - 1) / gemmNR32
	pb := &PackedB32{K: k, N: n}
	for p0 := 0; p0 < k; p0 += gemmKC {
		pb.blockOff = append(pb.blockOff, len(pb.panels))
		kb := min(gemmKC, k-p0)
		block := make([]float32, nPanels*kb*gemmNR32)
		pack(block, b.Data, n, 0, p0, n, kb, gemmNR32, true)
		pb.panels = append(pb.panels, block...)
	}
	if k == 0 {
		pb.blockOff = []int{0}
	}
	return pb
}

// AffinePackedF32Into is AffineInto in float32 arithmetic against
// prepacked weights (see PackB32), the epilogue added in float64 as the
// kernel widens each tile: the f32 serving form of every nn.Linear product
// and of the tokenizer's.
//
// dchag:hotpath — the f32 serving fast path; it performs no heap allocation.
func AffinePackedF32Into(dst []float64, ldc int, x *Tensor, pb *PackedB32, ep Epilogue) {
	g := affineSpec("AffinePackedF32Into", dst, ldc, x, pb.K, pb.N, ep)
	gemm2D[float32](&g, pb)
}

// MatMulF32Into computes dst = a@b in float32 arithmetic with float64
// operands and destination, packing b on the fly: a is [M,K], b is [K,N],
// dst is [M,N]. It returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func MatMulF32Into(dst, a, b *Tensor) *Tensor {
	return product[float32]("MatMulF32Into", dst, a, b, false, false, false)
}

// BatchedMatMulTF32Into is BatchedMatMulTInto in float32 arithmetic — the
// attention score product Q @ K^T on the f32 inference path.
//
// dchag:hotpath — it performs no heap allocation.
func BatchedMatMulTF32Into(dst, a, b View, alpha float64) {
	batched[float32]("BatchedMatMulTF32Into", dst, a, b, false, true, alpha)
}

// BatchedMatMulF32Into is BatchedMatMulInto in float32 arithmetic — the
// attention context product scores @ V on the f32 inference path.
//
// dchag:hotpath — it performs no heap allocation.
func BatchedMatMulF32Into(dst, a, b View, alpha float64) {
	batched[float32]("BatchedMatMulF32Into", dst, a, b, false, false, alpha)
}
