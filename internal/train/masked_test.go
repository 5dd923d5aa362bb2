package train

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/tensor"
)

// imageBatches is fixedBatches at an arbitrary image size.
func imageBatches(t *testing.T, a model.Arch, steps, batch int) BatchFn {
	t.Helper()
	g := data.NewHyperspectral(data.HyperspectralConfig{
		Images: steps * batch, Channels: a.Channels, ImgH: a.ImgH, ImgW: a.ImgW,
		Endmembers: 3, Noise: 0.01, Seed: 42,
	})
	xs := make([]*tensor.Tensor, steps)
	for s := range xs {
		xs[s] = g.Batch(s*batch, batch)
	}
	return func(step int) (*tensor.Tensor, *tensor.Tensor) { return xs[step], xs[step] }
}

// TestMaskedTrainingLossBits pins MAE training at shapes deep enough that
// the stage's weight-gradient products sum over several kc blocks (the
// cross-attention projections of an hsi-shaped stage sum 2048 rows; the
// tokenizer of the 24x24 linear stage 288): a pass that computes only the
// visible locations must regroup none of those sums. Every aggregator kind
// runs serially and through Distributed at 2 ranks, each against the digest
// recorded while the stage still computed every location (the linear row's
// since its first level folds the tokenizer in, which moved its bits; model.
// TestMaskedStepMatchesWholeStage holds that fold's masked step to its whole
// stage). The 2-rank column moved once when the clip's norm became one
// running total (DistributedClipGradNorm); the cross rows' columns still
// differ where clipping bites, since the 2-rank norm sums each rank's local
// squares as a subtotal of its own before the group adds them.
func TestMaskedTrainingLossBits(t *testing.T) {
	hsi := model.Arch{
		Config: core.Config{
			Channels: 64, ImgH: 16, ImgW: 16, Patch: 2,
			Embed: 32, Heads: 4, Kind: core.KindCross, Seed: 5,
		},
		Depth: 1, Partitions: 4,
	}
	linear := hsi
	linear.Channels, linear.ImgH, linear.ImgW = 80, 24, 24
	linear.Kind, linear.Tree = core.KindLinear, 2
	crossTree := hsi
	crossTree.Tree, crossTree.MetaTokens = 2, 1
	baseline := hsi
	baseline.Partitions = 1
	for _, c := range []struct {
		name       string
		arch       model.Arch
		serial, q2 uint64
	}{
		{"cross/hsi", hsi, 0xe838316a2826c25f, 0x699140183e0fcf54},              // 0xe423faa642c7305a before the one-total clip
		{"linear/tree2/c80", linear, 0xd2190ee640f3ba68, 0xd2190ee640f3ba68},    // q2 0x2644057c16433486 before the one-total clip; 0x2644057c16433486, 0xe871ac68bfef28a0 before the linear fold
		{"cross/tree2/meta", crossTree, 0x6eeb45bb689e3cab, 0x1ebb893727b9d701}, // 0x5f74db53ea440d1d before the one-total clip
		{"baseline/hsi", baseline, 0x43a783f95d65940b, 0},                       // one partition: no 2-rank run
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Steps: 3, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3, ClipNorm: 1}
			batch := imageBatches(t, c.arch, opts.Steps, opts.Batch)
			serial := serialRun(t, model.NewSerialDCHAGEquivalent(c.arch, c.arch.Partitions), opts, batch)
			if got := lossDigest(serial.Loss); got != c.serial {
				t.Errorf("serial loss digest %016x, want %016x (losses %v)", got, c.serial, serial.Loss)
			}
			if c.arch.Partitions == 1 {
				return
			}
			dist, _, err := Distributed(c.arch, 2, false, opts, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got := lossDigest(dist.Loss); got != c.q2 {
				t.Errorf("2-rank loss digest %016x, want %016x (losses %v)", got, c.q2, dist.Loss)
			}
		})
	}
}
