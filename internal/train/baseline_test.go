package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/tensor"
)

// lossDigest is FNV-64a over the little-endian float64 bits of each loss,
// in step order: the digest recipe of the training runs.
func lossDigest(loss []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range loss {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSerialBaselineLossBits pins the paper's baseline — model.NewSerial,
// one aggregation module over every channel — bit for bit: a few MAE steps
// at a small shape for both layer kinds, flat and two-level, must reproduce
// the recorded loss digests exactly. A change that moves the baseline's
// parameters, their order or its arithmetic fails it.
func TestSerialBaselineLossBits(t *testing.T) {
	for _, c := range []struct {
		kind core.LayerKind
		tree int
		want uint64
	}{
		{core.KindCross, 0, 0x2060426669102dcf},
		{core.KindCross, 2, 0x77ee17045e483442},
		{core.KindLinear, 0, 0x6aade6628df3c785},
		{core.KindLinear, 2, 0x20d00330347ce308}, // 0xe77eacdf8439eeb2 before the linear first level folded the tokenizer in
	} {
		t.Run(fmt.Sprintf("kind=%s/tree=%d", c.kind, c.tree), func(t *testing.T) {
			a := tinyArch(6)
			a.Kind, a.Tree = c.kind, c.tree
			opts := Options{Steps: 4, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3, ClipNorm: 1}
			hist := serialRun(t, model.NewSerial(a), opts, fixedBatches(t, 6, opts.Steps, opts.Batch))
			if got := lossDigest(hist.Loss); got != c.want {
				t.Fatalf("loss digest %016x, want %016x (losses %v)", got, c.want, hist.Loss)
			}
		})
	}
}

// TestHybridLossBits pins the Sec. 3.4 composition, D-CHAG(TP=2) x DP=2, bit
// for bit: a few clipped MAE steps at a small shape for both layer kinds,
// with replicated and with tensor-parallel ViT blocks, must reproduce the
// recorded loss digests. At this shape every cell's digest moves when the
// norm's summation order does: beside each is the digest it read while the
// norm summed the replicated parameters as a second subtotal. Each
// trajectory must also differ from the same run unclipped, so the digests
// hold the clip's summation order, not a norm that never reaches its cap.
func TestHybridLossBits(t *testing.T) {
	for _, c := range []struct {
		kind  core.LayerKind
		tpViT bool
		want  uint64
	}{
		{core.KindCross, false, 0x403234dde5d67c89},  // 0x7813b477d552ef1c in the two-subtotal order
		{core.KindCross, true, 0x2b332ddacbce49d7},   // 0x27957a2790f410a9 in the two-subtotal order
		{core.KindLinear, false, 0xe82d25dd4b1f8e20}, // 0x1459f9ccb8f68592 in the two-subtotal order
		{core.KindLinear, true, 0x1459f9ccb8f68592},  // 0xba5ba47799100298 in the two-subtotal order
	} {
		t.Run(fmt.Sprintf("kind=%s/tpvit=%v", c.kind, c.tpViT), func(t *testing.T) {
			a := model.Arch{
				Config: core.Config{
					Channels: 8, ImgH: 8, ImgW: 8, Patch: 2,
					Embed: 16, Heads: 2, Kind: c.kind, Seed: 2024,
				},
				Depth: 2, MetaTokens: 1,
			}
			opts := Options{Steps: 4, Batch: 4, LR: 3e-3, MaskRatio: 0.5, Seed: 2024, ClipNorm: 1}
			gen := data.NewHyperspectral(data.HyperspectralConfig{
				Images: opts.Steps * opts.Batch, Channels: a.Channels, ImgH: a.ImgH, ImgW: a.ImgW,
				Endmembers: 4, Noise: 0.01, Seed: 2024,
			})
			xs := make([]*tensor.Tensor, opts.Steps)
			for s := range xs {
				xs[s] = gen.Batch(s*opts.Batch, opts.Batch)
			}
			batch := func(s int) (*tensor.Tensor, *tensor.Tensor) { return xs[s], xs[s] }
			hist, _, err := Hybrid(a, 2, 2, c.tpViT, opts, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got := lossDigest(hist.Loss); got != c.want {
				t.Errorf("loss digest %016x, want %016x (losses %v)", got, c.want, hist.Loss)
			}
			opts.ClipNorm = 0
			free, _, err := Hybrid(a, 2, 2, c.tpViT, opts, batch)
			if err != nil {
				t.Fatal(err)
			}
			if lossDigest(free.Loss) == lossDigest(hist.Loss) {
				t.Errorf("clipping at 1 left the trajectory as it is unclipped: the norm never reached the cap")
			}
		})
	}
}

// TestPoisonedLendsChangeNoBit runs the committed loss digests with every
// buffer the channel stage and the block stack lend NaN-filled before each
// borrower runs (tensor.WithPoisonedLends): a read of another borrower's
// leftovers moves a digest.
func TestPoisonedLendsChangeNoBit(t *testing.T) {
	for _, o := range []struct {
		name string
		test func(*testing.T)
	}{
		{"SerialBaselineLossBits", TestSerialBaselineLossBits},
		{"MaskedTrainingLossBits", TestMaskedTrainingLossBits},
		{"HybridLossBits", TestHybridLossBits},
	} {
		t.Run(o.name, func(t *testing.T) { tensor.WithPoisonedLends(func() { o.test(t) }) })
	}
}
