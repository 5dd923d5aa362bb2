package train

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
)

// sameLoss asserts two loss histories agree step for step, bitwise.
func sameLoss(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(want), len(got))
	}
	for s := range want {
		if want[s] != got[s] {
			t.Fatalf("%s: step %d: want %v, got %v (diff %g)", label, s, want[s], got[s], math.Abs(want[s]-got[s]))
		}
	}
}

// nearLoss asserts two loss histories agree step for step to float64
// round-off. Cross-topology comparisons use it instead of sameLoss: the
// distributed clip-norm reduction associates partial sums differently than
// the serial loop, which can move a step's loss by an ulp.
func nearLoss(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(want), len(got))
	}
	for s := range want {
		if math.Abs(want[s]-got[s]) > 1e-12*math.Abs(want[s]) {
			t.Fatalf("%s: step %d: want %v, got %v", label, s, want[s], got[s])
		}
	}
}

// latestDir resolves a checkpoint root to its newest committed step
// directory.
func latestDir(t *testing.T, root string) string {
	t.Helper()
	dir, err := ckpt.LatestDir(root)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// copyCheckpoint clones a checkpoint directory so a resume (which writes its
// own checkpoints) cannot disturb the original.
func copyCheckpoint(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestExactResumeSerial(t *testing.T) {
	// Train 2N continuously vs. train N, checkpoint, resume N: the loss
	// histories must match bitwise. This pins the exact-resume contract —
	// optimizer moments, AdamW step count, and the mask-RNG stream are all
	// fast-forwarded to the restored step.
	const n = 4
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 2)
	opts := Options{Steps: 2 * n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3, ClipNorm: 1}
	full := serialRun(t, model.NewSerialDCHAGEquivalent(a, 2), opts, batch)

	dir := t.TempDir()
	firstOpts := opts
	firstOpts.Steps = n
	firstOpts.CheckpointDir = dir
	firstHalf, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), firstOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	sameLoss(t, "interrupted prefix", full.Loss[:n], firstHalf.Loss)

	resumeOpts := opts
	resumeOpts.CheckpointDir = dir
	resumeOpts.Resume = true
	second, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), resumeOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if second.Start != n {
		t.Fatalf("resumed Start = %d, want %d", second.Start, n)
	}
	sameLoss(t, "resumed tail", full.Loss[n:], second.Loss)
}

func TestExactResumeAfterCrash(t *testing.T) {
	// Simulate a real mid-training failure: the run is launched with the
	// full horizon, dies after the step-n checkpoint, and is relaunched with
	// -resume. The resumed tail must match the uninterrupted run bitwise.
	const n = 3
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 2)
	opts := Options{Steps: 2 * n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 5}
	full := serialRun(t, model.NewSerialDCHAGEquivalent(a, 2), opts, batch)

	dir := t.TempDir()
	crashOpts := opts
	crashOpts.CheckpointDir = dir
	crashOpts.CheckpointEvery = n
	crashing := func(step int) (*tensor.Tensor, *tensor.Tensor) {
		if step >= n {
			panic("simulated crash after the step-n checkpoint")
		}
		return batch(step)
	}
	// The serial run is the 1×1 mesh: the rank's panic comes back as the
	// mesh run's error.
	if _, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), crashOpts, crashing); err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("err = %v, want the crashing batch function's panic", err)
	}
	man, err := ckpt.ReadManifest(latestDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if man.Step != n {
		t.Fatalf("crash left checkpoint at step %d, want %d", man.Step, n)
	}

	resumeOpts := opts
	resumeOpts.CheckpointDir = dir
	resumeOpts.Resume = true
	second, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), resumeOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	sameLoss(t, "post-crash resumed tail", full.Loss[n:], second.Loss)
}

func TestExactResumeDistributed(t *testing.T) {
	const n, p = 3, 2
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 2)
	opts := Options{Steps: 2 * n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 11, ClipNorm: 1}
	full, _, err := Distributed(a, p, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	firstOpts := opts
	firstOpts.Steps = n
	firstOpts.CheckpointDir = dir
	if _, _, err := Distributed(a, p, false, firstOpts, batch); err != nil {
		t.Fatal(err)
	}
	resumeOpts := opts
	resumeOpts.CheckpointDir = dir
	resumeOpts.Resume = true
	second, _, err := Distributed(a, p, false, resumeOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if second.Start != n {
		t.Fatalf("resumed Start = %d, want %d", second.Start, n)
	}
	sameLoss(t, "distributed resumed tail", full.Loss[n:], second.Loss)
}

func TestExactResumeHybrid(t *testing.T) {
	const n, tp, dp = 2, 2, 2
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 4)
	opts := Options{Steps: 2 * n, Batch: 4, LR: 1e-2, MaskRatio: 0.5, Seed: 13, ClipNorm: 1}
	full, _, err := Hybrid(a, tp, dp, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	firstOpts := opts
	firstOpts.Steps = n
	firstOpts.CheckpointDir = dir
	if _, _, err := Hybrid(a, tp, dp, false, firstOpts, batch); err != nil {
		t.Fatal(err)
	}
	man, err := ckpt.ReadManifest(latestDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if man.World != tp {
		t.Fatalf("hybrid checkpoint world = %d, want tp = %d (one shard per TP rank of replica 0)", man.World, tp)
	}
	resumeOpts := opts
	resumeOpts.CheckpointDir = dir
	resumeOpts.Resume = true
	second, _, err := Hybrid(a, tp, dp, false, resumeOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	sameLoss(t, "hybrid resumed tail", full.Loss[n:], second.Loss)
}

// TestReshardRoundTrips is the resharding property test: a model with P=8
// logical partitions trained and checkpointed at q=4 ranks is restored at
// q' in {1 (serial), 2, 8}. Logical parameters must be bit-identical and the
// subsequent loss trajectories must continue the q=4 run's exactly — the
// checkpoint is a topology-free snapshot of one logical model.
func TestReshardRoundTrips(t *testing.T) {
	const n, partitions, saveRanks = 3, 8, 4
	a := tinyArch(8)
	a.Partitions = partitions
	batch := fixedBatches(t, 8, 2*n, 2)
	opts := Options{Steps: 2 * n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 21, ClipNorm: 1}

	full, _, err := Distributed(a, saveRanks, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	firstOpts := opts
	firstOpts.Steps = n
	firstOpts.CheckpointDir = dir
	if _, _, err := Distributed(a, saveRanks, false, firstOpts, batch); err != nil {
		t.Fatal(err)
	}

	// Bit-identical logical parameters at every restoring topology.
	ck, err := ckpt.OpenLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Partitions != partitions {
		t.Fatalf("manifest partitions = %d, want %d", ck.Manifest.Partitions, partitions)
	}
	for _, q := range []int{1, 2, 4, 8} {
		_, err := comm.Run(q, func(c *comm.Communicator) error {
			d := core.NewDCHAGPartitioned(a.Config, c, partitions)
			if err := ck.RestoreParams(d.Params()); err != nil {
				return err
			}
			for _, pr := range d.Params() {
				logical, ok := ck.LogicalTensor(pr.LogicalKey())
				if !ok {
					return fmt.Errorf("q=%d: logical tensor %q missing", q, pr.LogicalKey())
				}
				want := logical
				if pr.Shard != nil {
					want = tensor.SliceAxis(logical, pr.Shard.Axis, pr.Shard.Lo, pr.Shard.Hi)
				}
				if tensor.MaxAbsDiff(pr.W, want) != 0 {
					return fmt.Errorf("q=%d: param %q not bit-identical to its logical slice", q, pr.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Identical subsequent trajectories at every restoring topology. Each
	// resume runs on its own copy of the checkpoint, since resumed runs
	// write their own checkpoints into the directory they resume from.
	for _, q := range []int{1, 2, 4, 8} {
		resumeOpts := opts
		resumeOpts.CheckpointDir = copyCheckpoint(t, latestDir(t, dir))
		resumeOpts.Resume = true
		var second History
		if q == 1 {
			second, err = SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, partitions), resumeOpts, batch)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			second, _, err = Distributed(a, q, false, resumeOpts, batch)
			if err != nil {
				t.Fatal(err)
			}
		}
		if q == saveRanks {
			sameLoss(t, fmt.Sprintf("reshard q=%d tail", q), full.Loss[n:], second.Loss)
		} else {
			nearLoss(t, fmt.Sprintf("reshard q=%d tail", q), full.Loss[n:], second.Loss)
		}
	}
}

func TestResumeRejectsPartitionMismatch(t *testing.T) {
	const n = 2
	a := tinyArch(4) // partitions default to ranks = 2
	batch := fixedBatches(t, 4, 2*n, 2)
	opts := Options{Steps: n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 1, CheckpointDir: t.TempDir()}
	if _, _, err := Distributed(a, 2, false, opts, batch); err != nil {
		t.Fatal(err)
	}
	bad := a
	bad.Partitions = 4
	opts.Resume = true
	opts.Steps = 2 * n
	_, _, err := Distributed(bad, 4, false, opts, batch)
	if err == nil || !strings.Contains(err.Error(), "partitions") {
		t.Fatalf("want partition-mismatch error, got %v", err)
	}
}

func TestCheckpointOptionValidation(t *testing.T) {
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 1, 2)
	for _, opts := range []Options{
		{Steps: 1, Batch: 2, Resume: true},
		{Steps: 1, Batch: 2, CheckpointEvery: 1},
		{Steps: 1, Batch: 2, Resume: true, CheckpointDir: "x", InitFrom: "y"},
	} {
		if _, err := SerialCheckpointed(model.NewSerial(a), opts, batch); err == nil {
			t.Fatalf("options %+v: want validation error", opts)
		}
	}
}

// TestRestoreRefusesSerialStageCheckpoint: a checkpoint whose manifest
// records a stage other than D-CHAG ("serial") is refused by -resume and
// -load alike, with a message naming the stage, before anything is
// restored.
func TestRestoreRefusesSerialStageCheckpoint(t *testing.T) {
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2, 2)
	root := t.TempDir()
	opts := Options{Steps: 1, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 1, CheckpointDir: root}
	if _, err := SerialCheckpointed(model.NewSerial(a), opts, batch); err != nil {
		t.Fatal(err)
	}
	dir, err := ckpt.LatestDir(root)
	if err != nil {
		t.Fatal(err)
	}
	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Meta[ckpt.MetaStage] = "serial"
	if err := ckpt.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]Options{
		"resume": {Steps: 2, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 1, CheckpointDir: root, Resume: true},
		"load":   {Steps: 1, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 1, InitFrom: root},
	} {
		_, err := SerialCheckpointed(model.NewSerial(a), o, batch)
		if err == nil || !strings.Contains(err.Error(), `"serial" stage`) {
			t.Errorf("%s: want the serial stage refused by name, got %v", name, err)
		}
	}
}

func TestInitFromWarmStartsWithoutStep(t *testing.T) {
	// InitFrom restores weights but starts a fresh optimization: step 0,
	// full history length, optimizer state untouched.
	const n = 2
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 2)
	dir := t.TempDir()
	opts := Options{Steps: n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 9, CheckpointDir: dir}
	if _, _, err := Distributed(a, 2, false, opts, batch); err != nil {
		t.Fatal(err)
	}
	warm := Options{Steps: n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 9, InitFrom: dir}
	hist, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), warm, batch)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Start != 0 || len(hist.Loss) != n {
		t.Fatalf("warm start ran [%d, %d), want [0, %d)", hist.Start, hist.Start+len(hist.Loss), n)
	}
}

// addStrayTensor adds a tensor named name, which no model parameter names,
// to the checkpoint committed under root: one more shard that holds it alone.
func addStrayTensor(t *testing.T, root, name string) {
	t.Helper()
	dir := latestDir(t, root)
	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	leaf := ckpt.Leaf{Name: name, Logical: name, Shape: []int{2}, Values: []float64{1, 2}}
	tree := ckpt.Tree{Format: ckpt.Format, OptAlgo: man.OptAlgo, OptStep: man.Step, Leaves: []ckpt.Leaf{leaf}}
	if err := ckpt.WriteShard(dir, man.World, tree); err != nil {
		t.Fatal(err)
	}
	man.World++
	if err := ckpt.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesAnotherModel: every training restore refuses, before any
// rank restores, a checkpoint of another logical model instead of dropping
// what the model has no parameter for — a tensor it lacks (the final layer
// of a one-partition checkpoint that had one), named in the error, and the
// partial modules of another partition count, which a warm start compares
// as a resume does.
func TestRestoreRefusesAnotherModel(t *testing.T) {
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2, 2)
	const stray = "dchag.final.mix.weight"
	root := t.TempDir()
	if _, err := SerialCheckpointed(model.NewSerial(a), Options{Steps: 1, Batch: 2, LR: 1e-2, Seed: 1, CheckpointDir: root}, batch); err != nil {
		t.Fatal(err)
	}
	addStrayTensor(t, root, stray)
	resume := Options{Steps: 2, Batch: 2, LR: 1e-2, Seed: 1, CheckpointDir: root, Resume: true}
	load := Options{Steps: 1, Batch: 2, LR: 1e-2, Seed: 1, InitFrom: root}
	for name, o := range map[string]Options{"resume": resume, "load": load} {
		if _, err := SerialCheckpointed(model.NewSerial(a), o, batch); err == nil || !strings.Contains(err.Error(), stray) {
			t.Errorf("serial %s: want %q refused by name, got %v", name, stray, err)
		}
	}

	c := a
	c.Kind, c.Partitions = core.KindCross, 4
	root = t.TempDir()
	if _, _, err := Distributed(c, 2, false, Options{Steps: 1, Batch: 2, LR: 1e-2, Seed: 1, CheckpointDir: root}, batch); err != nil {
		t.Fatal(err)
	}
	load.InitFrom = root
	for _, p := range []int{1, 2} {
		if _, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(c, p), load, batch); err == nil || !strings.Contains(err.Error(), "partitions") {
			t.Errorf("load of 4 partitions at %d: want the partition count refused, got %v", p, err)
		}
	}
	c.Partitions = 2
	if _, _, err := Distributed(c, 2, false, load, batch); err == nil || !strings.Contains(err.Error(), "partitions") {
		t.Errorf("distributed load of 4 partitions at 2: want the partition count refused, got %v", err)
	}
}
