package model

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// wholeStage runs a masked step's channel stage over every location, the
// way the model ran it before the stage learned to skip masked ones: the
// masked rows are computed, then their gradient is zeroed before the
// stage's backward. It is the oracle the listed-location pass is held to.
type wholeStage struct {
	ChannelStage
	mask *tensor.Tensor // the step's mask; nil for none
	g    *tensor.Tensor
}

func (w *wholeStage) Forward(x *tensor.Tensor) *tensor.Tensor {
	w.dchag().Visible(nil)
	return w.ChannelStage.Forward(x)
}

func (w *wholeStage) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if w.mask == nil {
		return w.ChannelStage.Backward(grad)
	}
	w.g = tensor.EnsureShape(w.g, grad.Shape...)
	copy(w.g.Data, grad.Data)
	e := grad.Shape[2]
	for l, v := range w.mask.Data {
		if v != 0 {
			clear(w.g.Data[l*e : (l+1)*e])
		}
	}
	return w.ChannelStage.Backward(w.g)
}

// stepMasks are masks [b, t] of every kind a step may bring: about half
// masked, a different visible count per sample, every location masked and
// none.
func stepMasks(b, t int, seed int64) []struct {
	name string
	mask *tensor.Tensor
} {
	rng := tensor.NewRNG(seed)
	half := tensor.New(b, t)
	for i := range half.Data {
		if rng.Float64() < 0.5 {
			half.Data[i] = 1
		}
	}
	uneven := tensor.New(b, t)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			if ti%(bi+2) != 0 { // sample bi keeps every (bi+2)th location
				uneven.Set(1, bi, ti)
			}
		}
	}
	all := tensor.New(b, t)
	for i := range all.Data {
		all.Data[i] = 1
	}
	return []struct {
		name string
		mask *tensor.Tensor
	}{{"half", half}, {"uneven", uneven}, {"all", all}, {"none", tensor.New(b, t)}}
}

// firstDiff returns the first index at which a and b differ in bits, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) || poisonRead(a[i]) {
			return i
		}
	}
	return -1
}

// TestMaskedStepMatchesWholeStage holds a masked step, whose channel stage
// computes only the unmasked locations, to the same step with the stage run
// over every location and the masked rows' gradient zeroed: predictions and
// every parameter gradient bit for bit. The masks come one after another on the same
// two models, so each pass reuses scratch a pass at another visible count
// left behind. The shapes are deep enough that the weight-gradient products
// sum over several kc blocks: 2048 rows in the cross-attention partials,
// 1152 in the 24x24 tokenizer.
func TestMaskedStepMatchesWholeStage(t *testing.T) {
	cross := Arch{
		Config: core.Config{Channels: 64, ImgH: 16, ImgW: 16, Patch: 2, Embed: 32, Heads: 4, Kind: core.KindCross, Seed: 11},
		Depth:  1, Partitions: 4,
	}
	linear := cross
	linear.Channels, linear.ImgH, linear.ImgW = 20, 24, 24
	linear.Kind, linear.Tree, linear.Partitions = core.KindLinear, 2, 1
	crossTree := cross
	crossTree.Channels, crossTree.Tree, crossTree.Partitions, crossTree.MetaTokens = 24, 2, 2, 1
	for _, c := range []struct {
		name string
		arch Arch
	}{{"cross/p4", cross}, {"linear/tree2/p1", linear}, {"cross/tree2/p2/meta", crossTree}} {
		t.Run(c.name, func(t *testing.T) {
			a := c.arch
			const b = 2
			rng := tensor.NewRNG(12)
			x := tensor.Randn(rng, b, a.Channels, a.ImgH, a.ImgW)
			up := tensor.Randn(rng, b, a.Tokens(), a.HeadDim())
			m := NewSerialDCHAGEquivalent(a, a.Partitions)
			ref := NewSerialDCHAGEquivalent(a, a.Partitions)
			whole := &wholeStage{ChannelStage: ref.Stage}
			ref.Stage = whole
			for _, mk := range stepMasks(b, a.Tokens(), 13) {
				whole.mask = mk.mask
				nn.ZeroGrads(m.Params())
				nn.ZeroGrads(ref.Params())
				if i := firstDiff(m.Forward(x, mk.mask).Data, ref.Forward(x, mk.mask).Data); i >= 0 {
					t.Fatalf("mask %s: prediction %d differs from the whole stage's", mk.name, i)
				}
				m.Backward(up)
				ref.Backward(up)
				for pi, p := range m.Params() {
					if i := firstDiff(p.Grad.Data, ref.Params()[pi].Grad.Data); i >= 0 {
						t.Fatalf("mask %s: %s gradient %d is %v, the whole stage's %v", mk.name, p.Name, i, p.Grad.Data[i], ref.Params()[pi].Grad.Data[i])
					}
				}
			}
		})
	}
}

// TestEmptyMaskIsTheUnmaskedStep holds a step under a mask with no ones to
// the same step with no mask: the stage's whole pass, the same bits.
func TestEmptyMaskIsTheUnmaskedStep(t *testing.T) {
	a := smallArch()
	a.Partitions = 2
	rng := tensor.NewRNG(14)
	x := tensor.Randn(rng, 2, a.Channels, a.ImgH, a.ImgW)
	up := tensor.Randn(rng, 2, a.Tokens(), a.HeadDim())
	masked, plain := NewSerialDCHAGEquivalent(a, 2), NewSerialDCHAGEquivalent(a, 2)
	if i := firstDiff(masked.Forward(x, tensor.New(2, a.Tokens())).Data, plain.Forward(x, nil).Data); i >= 0 {
		t.Fatalf("prediction %d differs", i)
	}
	masked.Backward(up)
	plain.Backward(up)
	for pi, p := range masked.Params() {
		if i := firstDiff(p.Grad.Data, plain.Params()[pi].Grad.Data); i >= 0 {
			t.Fatalf("%s gradient %d differs", p.Name, i)
		}
	}
}

// TestMaskedStepGathersVisibleTokens runs masked steps at 2 ranks. Every
// rank issues its one forward AllGather whatever the mask, every location
// masked included, so collective sequences and op-indexed fault plans keep
// their meaning; it carries the visible locations' share of the unmasked
// step's bytes, and the backward files none.
func TestMaskedStepGathersVisibleTokens(t *testing.T) {
	a := smallArch()
	a.Kind, a.Partitions = core.KindCross, 4
	const b = 2
	rng := tensor.NewRNG(17)
	x := tensor.Randn(rng, b, a.Channels, a.ImgH, a.ImgW)
	up := tensor.Randn(rng, b, a.Tokens(), a.HeadDim())
	step := func(mask *tensor.Tensor) *comm.Traffic {
		g, err := comm.Run(2, func(c *comm.Communicator) error {
			m := NewDistributed(a, c, false)
			lo, hi := m.DCHAG().ChannelBounds()
			c.SetPhase("forward")
			m.Forward(tensor.SliceAxis(x, 1, lo, hi), mask)
			c.SetPhase("backward")
			m.Backward(up)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return g.Traffic()
	}
	unmasked := step(nil).BytesInPhase("forward")
	for _, mk := range stepMasks(b, a.Tokens(), 18) {
		tr := step(mk.mask)
		visible := 0
		for _, v := range mk.mask.Data {
			if v == 0 {
				visible++
			}
		}
		for r := 0; r < 2; r++ {
			if n := tr.CallsFor(r, "forward", comm.OpAllGather); n != 1 {
				t.Errorf("mask %s: rank %d issued %d forward AllGathers, want 1", mk.name, r, n)
			}
		}
		if got := tr.BytesInPhase("backward"); got != 0 {
			t.Errorf("mask %s: backward filed %d bytes, want 0", mk.name, got)
		}
		if got := tr.BytesInPhase("forward"); got*int64(b*a.Tokens()) != unmasked*int64(visible) {
			t.Errorf("mask %s: forward gathered %d bytes, want %d/%d of the unmasked step's %d", mk.name, got, visible, b*a.Tokens(), unmasked)
		}
	}
}

// hsiModel is the model hsi_serial trains: the 4-partition D-CHAG model at
// the hsi shape on one rank.
func hsiModel() *FoundationModel {
	return NewSerialDCHAGEquivalent(Arch{
		Config: core.Config{Channels: 64, ImgH: 16, ImgW: 16, Patch: 2, Embed: 32, Heads: 4, Kind: core.KindCross, Seed: 1},
		Depth:  2, Partitions: 4,
	}, 4)
}

// TestMaskedStepSteadyStateAllocs pins that a warm masked Forward+Backward
// of the hsi-shaped serial model allocates nothing, the location list and
// the stage's scatter buffers included, with the visible count changing
// from step to step.
func TestMaskedStepSteadyStateAllocs(t *testing.T) {
	m := hsiModel()
	a := m.Arch
	const b = 2
	rng := tensor.NewRNG(19)
	x := tensor.Randn(rng, b, a.Channels, a.ImgH, a.ImgW)
	up := tensor.Randn(rng, b, a.Tokens(), a.HeadDim())
	masks := stepMasks(b, a.Tokens(), 20)
	step := func() {
		for _, mk := range masks[:2] { // half, then uneven
			m.Forward(x, mk.mask)
			m.Backward(up)
		}
	}
	step()
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("two masked steps allocate %.1f times in steady state", n)
	}
}

// TestMaskedStageHeldAfterTraining measures the live heap one Forward and
// one Backward leave behind in the stage hsi_serial trains (4 partitions on
// one rank, 64 channels, E 32, batch 2) when every other location is
// masked, in token tensors [B, C, T, E], beside the same stage's whole pass:
// the stage's scratch scales with the locations it computes. The ceilings
// are the measured values rounded up.
func TestMaskedStageHeldAfterTraining(t *testing.T) {
	for _, c := range []struct {
		kind   core.LayerKind
		within float64 // token tensors held at half the locations: the ceiling
	}{
		{core.KindCross, 2.1},  // 2.03 measured, 3.81 over every location; 2.51 and 4.76 while the attention's backward wrote dQ, dK and dV into buffers of their own and the final layer formed its whole input gradient; 2.54 and 4.83 while each partial module kept its own token-gradient buffer; 3.90 and 7.41 while every group kept its Q, K and V; 4.22 and 8.27 while it wrote group inputs
		{core.KindLinear, 0.4}, // 0.33 measured, 0.60 over every location; 0.43 and 0.80 with the whole final-layer gradient; 0.46 and 0.86 while each partial module kept its own token-gradient buffer; 0.61 and 1.03 with the image gradient; 1.24 and 2.31 before its fold
	} {
		t.Run("kind="+c.kind.String(), func(t *testing.T) {
			cfg := core.Config{Channels: 64, ImgH: 16, ImgW: 16, Patch: 2, Embed: 32, Heads: 4, Kind: c.kind, Seed: 1}
			const batch = 2
			rng := tensor.NewRNG(21)
			x := tensor.Randn(rng, batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
			d := tensor.Randn(rng, batch, cfg.Tokens(), cfg.Embed)
			var vis []int
			for l := 0; l < batch*cfg.Tokens(); l += 2 {
				vis = append(vis, l)
			}
			held := func(locs []int) float64 {
				var bytes float64
				// The first round also grows the process-wide panel pool; the
				// second stage's round shows the stage alone.
				for round := 0; round < 2; round++ {
					s := NewDCHAGStage(cfg, comm.NewGroup(1).Comm(0), 4)
					before := liveHeap()
					s.Visible(locs)
					s.Forward(x)
					s.Backward(d)
					bytes = float64(liveHeap() - before)
					runtime.KeepAlive(s)
				}
				return bytes / float64(8*batch*cfg.Channels*cfg.Tokens()*cfg.Embed)
			}
			whole, half := held(nil), held(vis)
			t.Logf("holds %.2f token tensors at half the locations, %.2f over all of them", half, whole)
			if half > c.within {
				t.Fatalf("stage holds %.2f token tensors at half the locations, want at most %.2f", half, c.within)
			}
			if half > 0.6*whole {
				t.Fatalf("stage holds %.2f token tensors at half the locations, %.2f over all of them: its scratch does not scale", half, whole)
			}
		})
	}
}

// BenchmarkMaskedStep times a masked Forward+Backward of the hsi-shaped
// serial model at mask ratio 0.5.
func BenchmarkMaskedStep(b *testing.B) {
	m := hsiModel()
	a := m.Arch
	rng := tensor.NewRNG(22)
	x := tensor.Randn(rng, 2, a.Channels, a.ImgH, a.ImgW)
	up := tensor.Randn(rng, 2, a.Tokens(), a.HeadDim())
	mask := stepMasks(2, a.Tokens(), 23)[0].mask
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Forward(x, mask)
		m.Backward(up)
	}
}

// TestPoisonedLendsChangeNoBit runs the masked step's oracle and the block
// stack's aliasing oracle with every lent buffer — the stage's workspaces,
// Q/K/V buffer, no-grad fold and gather scratch, and the blocks' shared
// BlockGrads — NaN-filled before each borrower runs
// (tensor.WithPoisonedLends): a read of another borrower's leftovers then
// misses the oracles' bits.
func TestPoisonedLendsChangeNoBit(t *testing.T) {
	for _, o := range []struct {
		name string
		test func(*testing.T)
	}{
		{"MaskedStepMatchesWholeStage", TestMaskedStepMatchesWholeStage},
		{"SharedBlockWorkspaceCarriesNothing", TestSharedBlockWorkspaceCarriesNothingBetweenRounds},
	} {
		t.Run(o.name, func(t *testing.T) { withPoisonedLends(func() { o.test(t) }) })
	}
}
