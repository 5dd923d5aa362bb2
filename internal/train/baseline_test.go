package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
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
			hist := Serial(model.NewSerial(a), opts, fixedBatches(t, 6, opts.Steps, opts.Batch))
			if got := lossDigest(hist.Loss); got != c.want {
				t.Fatalf("loss digest %016x, want %016x (losses %v)", got, c.want, hist.Loss)
			}
		})
	}
}
