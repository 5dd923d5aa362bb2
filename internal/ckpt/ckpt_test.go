package ckpt

import (
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// shardedParams builds `q` ranks' views of one logical [rows, cols] tensor
// named "w" sharded along axis 0, each rank's values filled from fill.
func shardedParams(t *testing.T, q, rows, cols int, fill func(r, c int) float64) [][]*nn.Param {
	t.Helper()
	if rows%q != 0 {
		t.Fatalf("rows %d not divisible by %d", rows, q)
	}
	per := rows / q
	out := make([][]*nn.Param, q)
	for r := 0; r < q; r++ {
		w := tensor.New(per, cols)
		for i := 0; i < per; i++ {
			for j := 0; j < cols; j++ {
				w.Set(fill(r*per+i, j), i, j)
			}
		}
		p := nn.NewParam("w", w).MarkShard("w", 0, []int{rows, cols}, r*per, (r+1)*per)
		out[r] = []*nn.Param{p}
	}
	return out
}

func fill(r, c int) float64 { return float64(100*r + c) }

func saveRanks(t *testing.T, dir string, ranks [][]*nn.Param, opts []optim.Stateful, m Manifest) {
	t.Helper()
	for r, params := range ranks {
		var opt optim.Stateful
		if opts != nil {
			opt = opts[r]
		}
		if err := WriteShard(dir, r, BuildTree(params, opt)); err != nil {
			t.Fatal(err)
		}
	}
	m.World = len(ranks)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

func TestReshardValuesAcrossTopologies(t *testing.T) {
	const rows, cols = 12, 3
	dir := t.TempDir()
	saveRanks(t, dir, shardedParams(t, 4, rows, cols, fill), nil, Manifest{Partitions: 4})

	ck, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, ok := ck.LogicalTensor("w")
	if !ok {
		t.Fatal("logical tensor missing")
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if full.At(i, j) != fill(i, j) {
				t.Fatalf("assembled[%d,%d] = %v, want %v", i, j, full.At(i, j), fill(i, j))
			}
		}
	}
	// Restore at every dividing topology, including serial (whole).
	for _, q := range []int{1, 2, 3, 6, 12} {
		targets := shardedParams(t, q, rows, cols, func(int, int) float64 { return -1 })
		for r := 0; r < q; r++ {
			params := targets[r]
			if q == 1 {
				params = []*nn.Param{nn.NewParam("w", tensor.New(rows, cols))}
			}
			if err := ck.RestoreParams(params); err != nil {
				t.Fatalf("q=%d rank %d: %v", q, r, err)
			}
			p := params[0]
			lo := 0
			if p.Shard != nil {
				lo = p.Shard.Lo
			}
			for i := 0; i < p.W.Shape[0]; i++ {
				for j := 0; j < cols; j++ {
					if p.W.At(i, j) != fill(lo+i, j) {
						t.Fatalf("q=%d rank %d restored[%d,%d] = %v, want %v", q, r, i, j, p.W.At(i, j), fill(lo+i, j))
					}
				}
			}
		}
	}
}

func TestOptimizerStateReshards(t *testing.T) {
	const rows, cols = 4, 2
	dir := t.TempDir()
	ranks := shardedParams(t, 2, rows, cols, fill)
	opts := make([]optim.Stateful, 2)
	for r, params := range ranks {
		opt := optim.NewAdamW(params, 0.1, 0)
		// Distinct gradients per row so resharded moments are recognizable.
		for i := range params[0].Grad.Data {
			params[0].Grad.Data[i] = float64(r*rows/2*cols + i + 1)
		}
		opt.Step()
		opts[r] = opt
	}
	saveRanks(t, dir, ranks, opts, Manifest{Partitions: 2, Step: 1, OptAlgo: "adamw"})

	ck, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Restore serially: the whole-parameter moments must be the
	// concatenation of the two ranks' moments.
	whole := []*nn.Param{nn.NewParam("w", tensor.New(rows, cols))}
	opt := optim.NewAdamW(whole, 0.1, 0)
	if err := ck.RestoreParams(whole); err != nil {
		t.Fatal(err)
	}
	if err := ck.RestoreOptimizer(opt, whole); err != nil {
		t.Fatal(err)
	}
	st := opt.ExportState()
	if st.Step != 1 {
		t.Fatalf("restored step %d, want 1", st.Step)
	}
	m := st.Moments["w"]["m"]
	half := len(m) / 2
	src0 := opts[0].ExportState().Moments["w"]["m"]
	src1 := opts[1].ExportState().Moments["w"]["m"]
	for i := 0; i < half; i++ {
		if m[i] != src0[i] || m[half+i] != src1[i] {
			t.Fatalf("moment assembly wrong at %d", i)
		}
	}
}

// TestTornSingleSlotSaveRefused: a save into a single-slot directory that
// dies after rank 0's shard rename but before the manifest leaves the
// step-1 manifest over a step-2 shard. Opening that mix must fail, naming
// the shard and both steps, instead of restoring it silently.
func TestTornSingleSlotSaveRefused(t *testing.T) {
	dir := t.TempDir()
	ranks := shardedParams(t, 2, 4, 2, fill)
	opts := make([]optim.Stateful, 2)
	for r, params := range ranks {
		opt := optim.NewAdamW(params, 0.1, 0)
		params[0].Grad.Fill(1)
		opt.Step()
		opts[r] = opt
	}
	saveRanks(t, dir, ranks, opts, Manifest{Partitions: 2, Step: 1, OptAlgo: "adamw"})
	if _, err := OpenLatest(dir); err != nil {
		t.Fatalf("committed step 1 does not open: %v", err)
	}
	opts[0].(*optim.AdamW).Step()
	if err := WriteShard(dir, 0, BuildTree(ranks[0], opts[0])); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLatest(dir)
	if err == nil {
		t.Fatal("a step-1 manifest over a step-2 shard opened")
	}
	for _, want := range []string{ShardFile(0), "step 2", "step 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("torn-save error %q does not name %q", err, want)
		}
	}
}

func TestOpenRejectsGapsAndOverlaps(t *testing.T) {
	dir := t.TempDir()
	mk := func(lo, hi int) []*nn.Param {
		w := tensor.New(hi-lo, 2)
		return []*nn.Param{nn.NewParam("w", w).MarkShard("w", 0, []int{8, 2}, lo, hi)}
	}
	saveRanks(t, dir, [][]*nn.Param{mk(0, 3), mk(4, 8)}, nil, Manifest{})
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "gap or overlap") {
		t.Fatalf("want gap error, got %v", err)
	}
}

func TestOpenRejectsShortCoverage(t *testing.T) {
	dir := t.TempDir()
	w := tensor.New(4, 2)
	p := []*nn.Param{nn.NewParam("w", w).MarkShard("w", 0, []int{8, 2}, 0, 4)}
	saveRanks(t, dir, [][]*nn.Param{p}, nil, Manifest{})
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "cover") {
		t.Fatalf("want coverage error, got %v", err)
	}
}

func TestOpenDeduplicatesReplicatedShards(t *testing.T) {
	// FSDP-style replication: two ranks saving the same [lo,hi) slice must
	// collapse to one piece.
	dir := t.TempDir()
	mk := func(lo, hi int) []*nn.Param {
		w := tensor.New(hi-lo, 1)
		for i := range w.Data {
			w.Data[i] = float64(lo + i)
		}
		return []*nn.Param{nn.NewParam("w", w).MarkShard("w", 0, []int{4, 1}, lo, hi)}
	}
	saveRanks(t, dir, [][]*nn.Param{mk(0, 2), mk(0, 2), mk(2, 4), mk(2, 4)}, nil, Manifest{})
	ck, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := ck.LogicalTensor("w")
	for i := 0; i < 4; i++ {
		if full.At(i, 0) != float64(i) {
			t.Fatalf("dedup assembly wrong at %d", i)
		}
	}
}

func TestRestoreParamsReportsAllErrors(t *testing.T) {
	dir := t.TempDir()
	params := []*nn.Param{nn.NewParam("a", tensor.New(2, 2))}
	saveRanks(t, dir, [][]*nn.Param{params}, nil, Manifest{})
	ck, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*nn.Param{
		nn.NewParam("a", tensor.Full(7, 3, 3)), // shape mismatch
		nn.NewParam("b", tensor.New(1)),        // missing
	}
	err = ck.RestoreParams(bad)
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{`"a" logical shape`, `missing parameter "b"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// Nothing may have been written on error.
	if bad[0].W.Data[0] != 7 {
		t.Fatal("partial restore on error")
	}
}

func TestManifestFormatGuard(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(dir, Manifest{Format: "other/v9", World: 1}); err == nil {
		t.Fatal("want write-format error")
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("want missing-manifest error")
	}
}
