package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
)

// TestServedOutputDigests pins what the engine answers, bit for bit, to
// digests recorded from an earlier build: FNV-64a over the little-endian
// bits of every output value, the requests in order. A kernel change that
// moves one bit of a served answer fails it, which the differential tests,
// comparing one path of this build with another, cannot see. Ranks 1 and 2
// serve the same logical model, so they share a digest.
//
// The shape reaches both halves of the pooled attention's score chain: a
// cross-attention partial over 10 channels scores 10 query rows against 10
// keys padded to two 8-wide panels (whole 4x8 tiles, then two rows past the
// tiles), and the final layer over the 2 partitions has no whole four-row
// tile at all.
//
// F32 is pinned on the vector tiers only: the Go twins' float32 products
// round differently.
func TestServedOutputDigests(t *testing.T) {
	want := map[string]uint64{
		"L/f64": 0xcd986e9476886eee,
		"L/f32": 0x4807e6680b63aa6b,
		"C/f64": 0xa1d63b5435ba471b,
		"C/f32": 0x3eecb5de8ebc6500,
	}
	const requests = 6
	for _, kind := range []core.LayerKind{core.KindLinear, core.KindCross} {
		a := model.Arch{
			Config: core.Config{
				Channels: 20, ImgH: 4, ImgW: 4, Patch: 2,
				Embed: 16, Heads: 2, Tree: 0, Kind: kind, Seed: 17,
			},
			Depth: 1, MetaTokens: 1, Partitions: 2,
		}
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			if dt == tensor.F32 && tensor.KernelTier() == "go" {
				continue
			}
			name := fmt.Sprintf("%v/%v", kind, dt)
			for _, q := range []int{1, 2} {
				e := startTest(t, Config{Ranks: q, Replicas: 1, MaxBatch: 4, MaxWait: 5 * time.Millisecond, QueueDepth: 16, DType: dt}, FromArch(a))
				chans := make([]<-chan Response, requests)
				for i := range chans {
					var err error
					if chans[i], err = e.Submit(&Request{ID: fmt.Sprint(i), Input: testInput(a, int64(70+i), a.ImgH, a.ImgW)}); err != nil {
						t.Fatal(err)
					}
				}
				h := fnv.New64a()
				var b [8]byte
				for _, ch := range chans {
					r := <-ch
					if r.Err != nil {
						t.Fatal(r.Err)
					}
					for _, v := range r.Output.Data {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
						h.Write(b[:])
					}
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if got := h.Sum64(); got != want[name] {
					t.Errorf("%s at %d ranks: served digest %#016x, want %#016x", name, q, got, want[name])
				}
			}
		}
	}
}
