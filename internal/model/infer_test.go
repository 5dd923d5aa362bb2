package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/tensor"
)

// TestInferBitwiseIdenticalToForward pins the no-grad switch's core
// contract: Infer computes exactly Forward's output on every stage variant,
// with and without masking.
func TestInferBitwiseIdenticalToForward(t *testing.T) {
	a := smallArch()
	rng := tensor.NewRNG(11)
	x := tensor.Randn(rng, 3, a.Channels, a.ImgH, a.ImgW)
	mask := data.RandomMask(tensor.NewRNG(12), 3, a.Tokens(), 0.5)

	cases := []struct {
		name  string
		build func() *FoundationModel
	}{
		{"serial", func() *FoundationModel { return NewSerial(a) }},
		{"reference-p3", func() *FoundationModel { return NewSerialDCHAGEquivalent(a, 3) }},
		{"swin", func() *FoundationModel {
			sa := a
			sa.MetaTokens = 0
			sa.SwinWindow = 2
			return NewSerial(sa)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			masks := []*tensor.Tensor{nil, mask}
			if tc.name == "swin" {
				masks = masks[:1]
			}
			for _, mk := range masks {
				// Fresh replicas so one path's caches cannot leak into the
				// other's computation.
				want := tc.build().Forward(x, mk)
				got := tc.build().Infer(x, mk)
				if !tensor.SameShape(want, got) {
					t.Fatalf("shape mismatch: %v vs %v", want.Shape, got.Shape)
				}
				if d := tensor.MaxAbsDiff(want, got); d != 0 {
					t.Fatalf("Infer differs from Forward by %g (mask=%v)", d, mk != nil)
				}
			}
		})
	}
}

// shareBatches returns the batch sizes that exercise Infer's share at q
// ranks: B < q (no split), B = q, and uneven shares, among them one (2q-1)
// where r·⌊B/q⌋ and ⌊r·B/q⌋ part for q > 2.
func shareBatches(q int) []int {
	var bs []int
	for _, b := range []int{1, q - 1, q, q + 1, 2*q - 1, 2*q + 1} {
		if len(bs) == 0 || b > bs[len(bs)-1] {
			bs = append(bs, b)
		}
	}
	return bs
}

// TestDistributedInferMatchesForward runs the distributed model's Infer, which
// splits the batch over the group after the stage's AllGather, at every
// share shape: q of 2 and 3, B in shareBatches(q) on one model (so its
// buffers change shape between calls), mask off and on, with and without a
// meta token, replicated and tensor-parallel blocks, F64 and F32. Every rank
// returns the whole batch, identical on every rank. Under F64 it equals the
// rank's Forward bit for bit; with replicated blocks it equals the serial
// reference's Infer bit for bit in both dtypes, and with tensor-parallel
// blocks (which reorder the row-parallel sums) within round-off.
func TestDistributedInferMatchesForward(t *testing.T) {
	for _, q := range []int{2, 3} {
		for _, meta := range []int{0, 1} {
			for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
				for _, tp := range []bool{false, true} {
					name := fmt.Sprintf("q%d/meta%d/%v/tp=%v", q, meta, dt, tp)
					t.Run(name, func(t *testing.T) { checkDistributedInfer(t, q, meta, dt, tp) })
				}
			}
		}
	}
}

func checkDistributedInfer(t *testing.T, q, meta int, dt tensor.DType, tp bool) {
	a := smallArch()
	a.Partitions, a.MetaTokens = q, meta
	a.Heads, a.Embed = q, 4*q // tensor-parallel blocks split the heads
	rng := tensor.NewRNG(int64(21 + q))
	type input struct{ x, mask, want *tensor.Tensor }
	var inputs []input
	ref := NewSerialDCHAGEquivalent(a, q)
	ref.SetInferDType(dt)
	for _, b := range shareBatches(q) {
		x := tensor.Randn(rng, b, a.Channels, a.ImgH, a.ImgW)
		for _, mask := range []*tensor.Tensor{nil, data.RandomMask(rng, b, a.Tokens(), 0.5)} {
			inputs = append(inputs, input{x, mask, ref.Infer(x, mask).Clone()})
		}
	}
	got := make([][]*tensor.Tensor, q)
	if _, err := comm.Run(q, func(c *comm.Communicator) error {
		fwd, m := NewDistributed(a, c, tp), NewDistributed(a, c, tp)
		m.SetInferDType(dt)
		lo, hi := m.Stage.(*DCHAGStage).ChannelBounds()
		for i, in := range inputs {
			xs := tensor.SliceAxis(in.x, 1, lo, hi)
			pred := m.Infer(xs, in.mask)
			got[c.Rank()] = append(got[c.Rank()], pred.Clone())
			if dt == tensor.F64 {
				if d := tensor.MaxAbsDiff(fwd.Forward(xs, in.mask), pred); d != 0 {
					return fmt.Errorf("rank %d input %d (B %d): Infer differs from Forward by %g", c.Rank(), i, in.x.Shape[0], d)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		b, masked := in.x.Shape[0], in.mask != nil
		for r := 0; r < q; r++ {
			if d := tensor.MaxAbsDiff(got[r][i], got[0][i]); d != 0 || !tensor.SameShape(got[r][i], in.want) {
				t.Fatalf("B %d mask=%v: rank %d's %v differs from rank 0's by %g", b, masked, r, got[r][i].Shape, d)
			}
		}
		tol := 0.0
		if tp {
			tol = 1e-9
			if dt == tensor.F32 {
				tol = 1e-4
			}
			tol *= math.Max(1, math.Max(in.want.Max(), -in.want.Min()))
		}
		if d := tensor.MaxAbsDiff(got[0][i], in.want); d > tol {
			t.Fatalf("B %d mask=%v: distributed Infer differs from the serial reference by %g (tol %g)", b, masked, d, tol)
		}
	}
}

// TestDistributedInferTraffic pins the share's communication on the ledger:
// Infer records exactly one AllGather of partial tokens, plus one of the
// predictions only when replicated blocks split a batch of B >= q, each at
// the volume it reads; Forward keeps its one AllGather of the stage's
// volume; tensor-parallel blocks all-reduce in Infer exactly as in Forward.
func TestDistributedInferTraffic(t *testing.T) {
	const q = 2
	a := smallArch()
	a.Partitions = q
	tokens, e, d := a.Tokens(), a.Embed, a.HeadDim()
	for _, tp := range []bool{false, true} {
		for _, b := range []int{1, 2, 3} {
			x := tensor.Randn(tensor.NewRNG(int64(b)), b, a.Channels, a.ImgH, a.ImgW)
			g, err := comm.Run(q, func(c *comm.Communicator) error {
				m := NewDistributed(a, c, tp)
				lo, hi := m.Stage.(*DCHAGStage).ChannelBounds()
				xs := tensor.SliceAxis(x, 1, lo, hi)
				c.SetPhase("forward")
				m.Forward(xs, nil)
				c.SetPhase("infer")
				m.Infer(xs, nil)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Traffic()
			stage := int64((q - 1) * b * tokens * e) // the peers' partition tokens
			for r := 0; r < q; r++ {
				calls, elems := 1, stage
				if !tp && b >= q {
					share := (r+1)*b/q - r*b/q
					calls, elems = 2, stage+int64((b-share)*tokens*d)
				}
				if got := tr.CallsFor(r, "forward", comm.OpAllGather); got != 1 || tr.BytesFor(r, "forward", comm.OpAllGather) != stage*comm.BytesPerElem {
					t.Errorf("tp=%v B %d rank %d: Forward gathered %d times, %d bytes; want once, %d", tp, b, r, got, tr.BytesFor(r, "forward", comm.OpAllGather), stage*comm.BytesPerElem)
				}
				if got := tr.CallsFor(r, "infer", comm.OpAllGather); got != calls || tr.BytesFor(r, "infer", comm.OpAllGather) != elems*comm.BytesPerElem {
					t.Errorf("tp=%v B %d rank %d: Infer gathered %d times, %d bytes; want %d, %d", tp, b, r, got, tr.BytesFor(r, "infer", comm.OpAllGather), calls, elems*comm.BytesPerElem)
				}
				if f, i := tr.CallsFor(r, "forward", comm.OpAllReduce), tr.CallsFor(r, "infer", comm.OpAllReduce); f != i || (f == 0) == tp {
					t.Errorf("tp=%v B %d rank %d: %d all-reduces in Forward, %d in Infer", tp, b, r, f, i)
				}
			}
		}
	}
}

// TestEvalModeSwitch pins SetEval's semantics: Forward in eval mode equals
// Infer, and Backward refuses to run.
func TestEvalModeSwitch(t *testing.T) {
	a := smallArch()
	rng := tensor.NewRNG(31)
	x := tensor.Randn(rng, 2, a.Channels, a.ImgH, a.ImgW)

	m := NewSerial(a)
	want := m.Infer(x, nil)
	m.SetEval(true)
	got := m.Forward(x, nil)
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("eval-mode Forward differs from Infer by %g", d)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Backward in eval mode must panic")
		}
	}()
	m.Backward(tensor.New(2, a.Tokens(), a.HeadDim()))
}

// TestInferLeavesTrainingStateUsable proves Infer on a training model does
// not disturb a pending Forward/Backward pair: interleaving an Infer — at a
// *different* batch size, which would corrupt any cached batch extents —
// leaves the gradients identical to an undisturbed run, input gradient and
// every parameter gradient alike.
func TestInferLeavesTrainingStateUsable(t *testing.T) {
	serial := smallArch()
	swin := smallArch()
	swin.MetaTokens = 0
	swin.SwinWindow = 2
	cross := smallArch()
	cross.Kind, cross.Tree = core.KindCross, 2
	for name, a := range map[string]Arch{"serial": serial, "swin": swin, "cross-tree2": cross} {
		t.Run(name, func(t *testing.T) {
			rng := tensor.NewRNG(41)
			x := tensor.Randn(rng, 2, a.Channels, a.ImgH, a.ImgW)
			other := tensor.Randn(rng, 5, a.Channels, a.ImgH, a.ImgW)
			up := tensor.Randn(rng, 2, a.Tokens(), a.HeadDim())

			run := func(interleave bool) (*tensor.Tensor, *FoundationModel) {
				m := NewSerial(a)
				m.Forward(x, nil)
				if interleave {
					m.Infer(other, nil) // batch 5 against the pending batch-2 Forward
				}
				return m.Backward(up), m
			}
			gradA, mA := run(false)
			gradB, mB := run(true)
			if d := tensor.MaxAbsDiff(gradA, gradB); d != 0 {
				t.Fatalf("Infer disturbed cached training state: input gradient moved by %g", d)
			}
			pa, pb := mA.Params(), mB.Params()
			for i := range pa {
				if d := tensor.MaxAbsDiff(pa[i].Grad, pb[i].Grad); d != 0 {
					t.Fatalf("Infer disturbed cached training state: %s gradient moved by %g", pa[i].Name, d)
				}
			}
		})
	}
}
