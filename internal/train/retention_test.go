package train

import (
	"os"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Tests for checkpoint retention (Options.CheckpointKeep): the
// step-directory layout, pruning order, resume-from-latest (including
// after a partial save), and a fresh run into a used root.

func retentionSteps(t *testing.T, root string) []int {
	t.Helper()
	steps, err := ckpt.ListSteps(root)
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

func TestSerialRetentionKeepsLastK(t *testing.T) {
	const n = 5
	a := tinyArch(4)
	batch := fixedBatches(t, 4, n, 2)
	dir := t.TempDir()
	opts := Options{
		Steps: n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3,
		CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: 2,
	}
	if _, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), opts, batch); err != nil {
		t.Fatal(err)
	}
	steps := retentionSteps(t, dir)
	if len(steps) != 2 || steps[0] != n-1 || steps[1] != n {
		t.Fatalf("retained steps %v, want the last two [%d %d]", steps, n-1, n)
	}
	// The root itself must not hold a manifest.
	if ckpt.Committed(dir) {
		t.Fatal("retention root must not carry a manifest of its own")
	}
}

func TestSerialRetentionResumeFromLatest(t *testing.T) {
	// Continuous 2N steps vs. N steps + resume under keep-last-k: the
	// resumed run restores from the newest retained directory and the loss
	// histories match bitwise.
	const n = 3
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 2)
	opts := Options{Steps: 2 * n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3, ClipNorm: 1}
	full := serialRun(t, model.NewSerialDCHAGEquivalent(a, 2), opts, batch)

	dir := t.TempDir()
	firstOpts := opts
	firstOpts.Steps = n
	firstOpts.CheckpointDir = dir
	firstOpts.CheckpointEvery = 1
	firstOpts.CheckpointKeep = 2
	if _, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), firstOpts, batch); err != nil {
		t.Fatal(err)
	}
	if got := retentionSteps(t, dir); len(got) != 2 {
		t.Fatalf("retained %v, want 2 checkpoints", got)
	}

	resumeOpts := opts
	resumeOpts.CheckpointDir = dir
	resumeOpts.CheckpointKeep = 2
	resumeOpts.Resume = true
	resumed, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), resumeOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Start != n {
		t.Fatalf("resume started at %d, want %d (the newest retained step)", resumed.Start, n)
	}
	sameLoss(t, "keep-last-k resume", full.Loss[n:], resumed.Loss)
}

func TestRetentionResumeSkipsPartialSave(t *testing.T) {
	// A crash mid-save leaves a newer manifest-less directory; resume must
	// restore from the last committed step, and the debris must survive
	// every later prune untouched (it is never "the directory being
	// written" from the pruner's point of view either).
	const n = 3
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 2)
	dir := t.TempDir()
	opts := Options{
		Steps: n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3,
		CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: 2,
	}
	if _, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), opts, batch); err != nil {
		t.Fatal(err)
	}
	// Fake the crash: a partial (uncommitted) save newer than everything.
	m := model.NewSerialDCHAGEquivalent(a, 2)
	partial := ckpt.StepDir(dir, n+1)
	if err := ckpt.WriteShard(partial, 0, ckpt.BuildTree(m.Params(), nil)); err != nil {
		t.Fatal(err)
	}

	resumeOpts := opts
	resumeOpts.Steps = 2 * n
	resumeOpts.Resume = true
	resumed, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), resumeOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Start != n {
		t.Fatalf("resume started at %d, want the committed step %d (not the partial %d)", resumed.Start, n, n+1)
	}
	// The resumed run checkpointed steps n+1..2n and pruned beyond keep=2;
	// the partial shard file must still exist... as part of the now-real
	// step-(n+1) directory or as debris — either way never deleted while
	// uncommitted. Here the resumed run committed its own step-(n+1), so
	// the directory gained a manifest; what must hold is that no error
	// occurred and the newest two steps are retained.
	steps := retentionSteps(t, dir)
	if len(steps) != 2 || steps[1] != 2*n {
		t.Fatalf("retained %v, want the newest two ending at %d", steps, 2*n)
	}
	if _, err := os.Stat(partial); err != nil {
		// step n+1 may legitimately have been pruned *after* being
		// committed by the resumed run; only an uncommitted directory is
		// protected. Nothing to assert then.
		if !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
}

func TestDistributedRetentionKeepsLastK(t *testing.T) {
	const n, p = 4, 2
	a := tinyArch(4)
	batch := fixedBatches(t, 4, n, 2)
	dir := t.TempDir()
	opts := Options{
		Steps: n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3,
		CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: 3,
	}
	if _, _, err := Distributed(a, p, false, opts, batch); err != nil {
		t.Fatal(err)
	}
	steps := retentionSteps(t, dir)
	if len(steps) != 3 || steps[0] != n-2 || steps[2] != n {
		t.Fatalf("retained %v, want [%d %d %d]", steps, n-2, n-1, n)
	}
	// Every retained checkpoint is complete: world-p shards + manifest.
	for _, s := range steps {
		ck, err := ckpt.Open(ckpt.StepDir(dir, s))
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if ck.Manifest.World != p || ck.Manifest.Step != s {
			t.Fatalf("step %d manifest: %+v", s, ck.Manifest)
		}
	}
}

func TestHybridRetentionAndResume(t *testing.T) {
	const n, tp, dp = 3, 2, 2
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 2*n, 4)
	opts := Options{Steps: 2 * n, Batch: 4, LR: 1e-2, MaskRatio: 0.5, Seed: 5}
	full, _, err := Hybrid(a, tp, dp, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	firstOpts := opts
	firstOpts.Steps = n
	firstOpts.CheckpointDir = dir
	firstOpts.CheckpointEvery = 1
	firstOpts.CheckpointKeep = 2
	if _, _, err := Hybrid(a, tp, dp, false, firstOpts, batch); err != nil {
		t.Fatal(err)
	}
	steps := retentionSteps(t, dir)
	if len(steps) != 2 || steps[1] != n {
		t.Fatalf("retained %v, want the last two ending at %d", steps, n)
	}

	resumeOpts := opts
	resumeOpts.CheckpointDir = dir
	resumeOpts.CheckpointKeep = 2
	resumeOpts.Resume = true
	resumed, _, err := Hybrid(a, tp, dp, false, resumeOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Start != n {
		t.Fatalf("hybrid resume started at %d, want %d", resumed.Start, n)
	}
	sameLoss(t, "hybrid keep-last-k resume", full.Loss[n:], resumed.Loss)
}

func TestCheckpointKeepValidation(t *testing.T) {
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 1, 2)
	m := model.NewSerialDCHAGEquivalent(a, 2)
	if _, err := SerialCheckpointed(m, Options{Steps: 1, Batch: 2, CheckpointKeep: 2}, batch); err == nil {
		t.Fatal("CheckpointKeep > 1 without CheckpointDir must be rejected")
	}
	if _, err := SerialCheckpointed(m, Options{Steps: 1, Batch: 2, CheckpointKeep: -1}, batch); err == nil {
		t.Fatal("negative CheckpointKeep must be rejected")
	}
}

func TestCheckpointKeepDefaultKeepsNewestStep(t *testing.T) {
	// Keep 0 and 1 both keep exactly the newest committed step directory;
	// the root never holds a manifest of its own.
	const n = 3
	a := tinyArch(4)
	batch := fixedBatches(t, 4, n, 2)
	for _, keep := range []int{0, 1} {
		dir := t.TempDir()
		opts := Options{
			Steps: n, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3,
			CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: keep,
		}
		if _, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), opts, batch); err != nil {
			t.Fatal(err)
		}
		if steps := retentionSteps(t, dir); len(steps) != 1 || steps[0] != n {
			t.Fatalf("keep=%d: retained %v, want only the newest [%d]", keep, steps, n)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("keep=%d: the root holds %d entries, want the one step directory", keep, len(entries))
		}
	}
}

// TestFreshRunIntoUsedRoot: run A saves steps 1–4 at keep 2, then a fresh
// run B (another seed) saves steps 1–2 into the same root. B's commits
// replace A's whole trajectory, so the newest checkpoint is B's step 2 —
// not A's step 4, which a resume would otherwise continue.
func TestFreshRunIntoUsedRoot(t *testing.T) {
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 4, 2)
	dir := t.TempDir()
	opts := Options{
		Steps: 4, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 3,
		CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: 2,
	}
	if _, err := SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), opts, batch); err != nil {
		t.Fatal(err)
	}
	fresh := opts
	fresh.Steps, fresh.Seed = 2, 4
	b := model.NewSerialDCHAGEquivalent(a, 2)
	if _, err := SerialCheckpointed(b, fresh, batch); err != nil {
		t.Fatal(err)
	}
	ck, err := ckpt.OpenLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Step != 2 {
		t.Fatalf("after a fresh 2-step run, latest checkpoint is step %d (retained %v), want the new run's step 2",
			ck.Manifest.Step, retentionSteps(t, dir))
	}
	if got := retentionSteps(t, dir); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("retained %v, want the new run's [1 2]", got)
	}
	for _, p := range b.Params() {
		want, ok := ck.LogicalTensor(p.LogicalKey())
		if !ok || tensor.MaxAbsDiff(p.W, want) != 0 {
			t.Fatalf("the latest checkpoint's %s is not the new run's final weights", p.Name)
		}
	}
}
