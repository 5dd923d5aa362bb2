package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestDepthSplitsReproduceTheWholeProduct holds a weight-gradient product
// over compacted rows, cut where DepthSplits says, bit for bit to the
// product over every row in which the dropped rows' b is a signed zero —
// what a masked location's gradient is — under every kernel tier, into a
// destination that already holds a gradient. Locations hold w rows each,
// w dividing kc and not, and the products run over several kc blocks.
func TestDepthSplitsReproduceTheWholeProduct(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		rng := NewRNG(31)
		for _, c := range []struct{ locs, w, m, n int }{
			{600, 1, 9, 32}, {128, 16, 32, 32}, {100, 10, 13, 5}, {90, 6, 4, 8}, {40, 300, 3, 3},
		} {
			rows := c.locs * c.w
			a, b := Randn(rng, rows, c.m), Randn(rng, rows, c.n)
			var keep []int
			for l := 0; l < c.locs; l++ {
				if rng.Float64() < 0.5 {
					keep = append(keep, l)
					continue
				}
				for i := range b.Data[l*c.w*c.n : (l+1)*c.w*c.n] {
					b.Data[l*c.w*c.n+i] = math.Copysign(0, rng.NormFloat64())
				}
			}
			ca, cb := New(len(keep)*c.w, c.m), New(len(keep)*c.w, c.n)
			for i, l := range keep {
				copy(ca.Data[i*c.w*c.m:(i+1)*c.w*c.m], a.Data[l*c.w*c.m:])
				copy(cb.Data[i*c.w*c.n:(i+1)*c.w*c.n], b.Data[l*c.w*c.n:])
			}
			want := Randn(rng, c.m, c.n)
			got := want.Clone()
			TMatMulAccInto(want, a, b, nil)
			ends := DepthSplits(nil, keep, c.w)
			lo := 0
			for _, hi := range ends {
				if hi <= lo || hi-lo > gemmKC {
					t.Fatalf("%+v: piece [%d,%d)", c, lo, hi)
				}
				lo = hi
			}
			if lo != len(keep)*c.w {
				t.Fatalf("%+v: pieces end at %d of %d rows", c, lo, len(keep)*c.w)
			}
			TMatMulAccInto(got, ca, cb, ends)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%+v: element %d is %v, the whole product's %v", c, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

// TestDepthSplitsCutAtBlockEnds pins the pieces on hand-worked lists. At two
// rows per location, locations 3 and 127 sit in full rows 6-7 and 254-255
// (block 0), 128 in 256-257 (block 1) and 300 in 600-601 (block 2). At three
// rows per location, location 85 spans full rows 255-257, across the end of
// block 0.
func TestDepthSplitsCutAtBlockEnds(t *testing.T) {
	for _, c := range []struct {
		locs []int
		w    int
		want []int
	}{
		{[]int{3, 127, 128, 300}, 2, []int{4, 6, 8}},
		{[]int{85}, 3, []int{1, 3}},
		{nil, 4, nil},
	} {
		got := DepthSplits(nil, c.locs, c.w)
		if len(got) != len(c.want) {
			t.Fatalf("DepthSplits(%v, %d) = %v, want %v", c.locs, c.w, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("DepthSplits(%v, %d) = %v, want %v", c.locs, c.w, got, c.want)
			}
		}
	}
}

// TestBatchedSplitReproducesTheWholeProduct is the batched form of
// TestDepthSplitsReproduceTheWholeProduct, as the cross stage's folded
// backward issues it: per member (a channel), P^T dX over compacted rows of
// one row per location, dX read as a column of a wider row, cut where
// DepthSplits says, equals the product over every row in which the dropped
// rows' dX is a signed zero, bit for bit, under every kernel tier.
func TestBatchedSplitReproducesTheWholeProduct(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		rng := NewRNG(32)
		for _, c := range []struct{ locs, g, m, n int }{{600, 3, 4, 32}, {300, 2, 1, 12}, {90, 4, 16, 8}} {
			p := Randn(rng, c.g, c.locs, c.m)    // per member [locs, m]
			dx := Randn(rng, 1, c.locs, c.g*c.n) // members side by side in each row
			var keep []int
			for l := 0; l < c.locs; l++ {
				if rng.Float64() < 0.5 {
					keep = append(keep, l)
					continue
				}
				for i := range dx.Data[l*c.g*c.n : (l+1)*c.g*c.n] {
					dx.Data[l*c.g*c.n+i] = math.Copysign(0, rng.NormFloat64())
				}
			}
			cp, cdx := New(c.g, len(keep), c.m), New(1, len(keep), c.g*c.n)
			for i, l := range keep {
				for k := 0; k < c.g; k++ {
					copy(cp.Data[(k*len(keep)+i)*c.m:][:c.m], p.Data[(k*c.locs+l)*c.m:])
				}
				copy(cdx.Data[i*c.g*c.n:][:c.g*c.n], dx.Data[l*c.g*c.n:])
			}
			want, got := New(c.g, c.m, c.n), New(c.g, c.m, c.n)
			BatchedTMatMulInto(MatView(want), MatView(p), HeadView(dx, c.g), 1, nil)
			BatchedTMatMulInto(MatView(got), MatView(cp), HeadView(cdx, c.g), 1, DepthSplits(nil, keep, 1))
			assertBitwise(t, fmt.Sprintf("%+v", c), got, want)
		}
	})
}

// TestBatchedSplitOverARepeatedOperand is the linear stage's folded
// backward: per member (a channel), P^T d with one output gradient d shared
// by every member (RepeatView), over compacted rows cut where DepthSplits
// says, equals the product over every row against d copied per member, in
// which the dropped rows of d are signed zeros, bit for bit, under every
// kernel tier, on the calling goroutine and split across workers.
func TestBatchedSplitOverARepeatedOperand(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		rng := NewRNG(34)
		for _, c := range []struct{ locs, g, m, n int }{{600, 20, 4, 64}, {300, 3, 1, 12}, {90, 2, 16, 8}} {
			p, d := Randn(rng, c.g, c.locs, c.m), Randn(rng, c.locs, c.n)
			var keep []int
			for l := 0; l < c.locs; l++ {
				if rng.Float64() < 0.5 {
					keep = append(keep, l)
					continue
				}
				for i := range d.Data[l*c.n : (l+1)*c.n] {
					d.Data[l*c.n+i] = math.Copysign(0, rng.NormFloat64())
				}
			}
			copies := New(c.g, c.locs, c.n)
			for k := 0; k < c.g; k++ {
				copy(copies.Data[k*c.locs*c.n:], d.Data)
			}
			cp, cd := New(c.g, len(keep), c.m), New(len(keep), c.n)
			for i, l := range keep {
				for k := 0; k < c.g; k++ {
					copy(cp.Data[(k*len(keep)+i)*c.m:][:c.m], p.Data[(k*c.locs+l)*c.m:])
				}
				copy(cd.Data[i*c.n:][:c.n], d.Data[l*c.n:])
			}
			want, whole, got := New(c.g, c.m, c.n), New(c.g, c.m, c.n), New(c.g, c.m, c.n)
			BatchedTMatMulInto(MatView(want), MatView(p), MatView(copies), 1, nil)
			BatchedTMatMulInto(MatView(whole), MatView(p), RepeatView(d, c.g), 1, nil)
			BatchedTMatMulInto(MatView(got), MatView(cp), RepeatView(cd, c.g), 1, DepthSplits(nil, keep, 1))
			assertBitwise(t, fmt.Sprintf("%+v whole", c), whole, want)
			assertBitwise(t, fmt.Sprintf("%+v compacted", c), got, want)
		}
	})
}

// TestBatchedAffineAddsEachMembersBias holds BatchedAffineInto to one
// AffineInto per member, bit for bit, each member with its own bias row and
// the destination members the columns of a wider row (a group's Q), under
// every kernel tier.
func TestBatchedAffineAddsEachMembersBias(t *testing.T) {
	withEveryTier(t, func(t *testing.T) {
		rng := NewRNG(33)
		for _, c := range []struct{ rows, g, k, n int }{{64, 16, 4, 32}, {9, 3, 1, 12}, {130, 2, 16, 20}} {
			p, w := Randn(rng, c.g, c.rows, c.k), Randn(rng, c.g, c.k, c.n)
			bias := Randn(rng, c.g, c.n)
			got, want := New(1, c.rows, c.g*c.n), New(1, c.rows, c.g*c.n)
			BatchedAffineInto(HeadView(got, c.g), MatView(p), MatView(w), 1, bias.Data)
			for i := 0; i < c.g; i++ {
				AffineInto(want.Data[i*c.n:], c.g*c.n, FromSlice(p.Data[i*c.rows*c.k:][:c.rows*c.k], c.rows, c.k),
					FromSlice(w.Data[i*c.k*c.n:][:c.k*c.n], c.k, c.n), false, Epilogue{Bias: bias.Data[i*c.n:][:c.n]})
			}
			assertBitwise(t, fmt.Sprintf("%+v", c), got, want)
		}
	})
}
