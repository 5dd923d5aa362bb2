package train

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// TestSaveCopiesNothing pins the save path's memory at a wx_tp2dp2 rank's
// shape (E 64, depth 8, 80 channels, TP 2, AdamW after one step):
// WriteShard(dir, r, BuildTree(params, opt)) streams the live buffers, so it
// allocates under 1 MB while writing over 6 MB (0.16 MB measured). The gob
// save it replaced allocated 48.1 MB here: 6.38 MB for the deep-copied tree
// and the rest in the encoder.
func TestSaveCopiesNothing(t *testing.T) {
	a := model.Arch{
		Config: core.Config{Channels: 80, ImgH: 16, ImgW: 16, Patch: 2, Embed: 64, Heads: 4, Kind: core.KindLinear, Seed: 1},
		Depth:  8, Partitions: 4,
	}
	const tp = 2
	params := make([][]*nn.Param, tp)
	opts := make([]*optim.AdamW, tp)
	if _, err := comm.Run(tp, func(c *comm.Communicator) error {
		ps := model.NewDistributed(a, c, true).Params()
		opt := optim.NewAdamW(ps, 1e-3, 0.01)
		for _, p := range ps {
			p.Grad.Fill(1e-3)
		}
		opt.Step()
		params[c.Rank()], opts[c.Rank()] = ps, opt
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for r := range tp {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ckpt.WriteShard(dir, r, ckpt.BuildTree(params[r], opts[r]))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, ckpt.ShardFile(r)))
		if err != nil {
			t.Fatal(err)
		}
		alloc := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		t.Logf("rank %d: wrote %.2f MB, allocated %.3f MB", r, float64(fi.Size())/1e6, alloc)
		if fi.Size() < 6e6 || alloc >= 1 {
			t.Fatalf("rank %d: wrote %d bytes allocating %.3f MB, want over 6 MB written under 1 MB allocated", r, fi.Size(), alloc)
		}
	}
}

// TestBoundaryTreeIsKeptByValue: the step-boundary tree a rank hands
// RunGeneration is a view of its live buffers; the result keeps a copy that
// later steps do not move.
func TestBoundaryTreeIsKeptByValue(t *testing.T) {
	p := nn.NewParam("w", tensor.FromSlice([]float64{1, 2, 3}, 3))
	opt := optim.NewAdamW([]*nn.Param{p}, 0.1, 0)
	p.Grad.Fill(1)
	opt.Step()
	res := GenResult{Trees: make([]ckpt.Tree, 1), Boundary: []int{-1}}
	res.keep(0, 1, ckpt.BuildTree([]*nn.Param{p}, opt))
	w, m := p.W.Data[0], opt.ExportState().Moments["w"]["m"][0]

	p.W.Data[0] = 99
	p.Grad.Fill(-5)
	opt.Step()
	leaf := res.Trees[0].Leaves[0]
	if res.Boundary[0] != 1 || leaf.Values[0] != w || leaf.Opt["m"][0] != m {
		t.Fatalf("kept boundary %d value %v moment %v, want 1, %v, %v", res.Boundary[0], leaf.Values[0], leaf.Opt["m"][0], w, m)
	}
}
