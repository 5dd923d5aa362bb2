package ckpt

import (
	"os"
	"path/filepath"
	"testing"
)

// commitAt writes a complete single-rank checkpoint into root's retention
// subdirectory for the step.
func commitAt(t *testing.T, root string, step int) {
	t.Helper()
	dir := StepDir(root, step)
	saveRanks(t, dir, shardedParams(t, 1, 4, 2, fill), nil, Manifest{Step: step})
}

// partialAt writes a shard without a manifest — a save in flight (or
// crashed mid-write).
func partialAt(t *testing.T, root string, step int) string {
	t.Helper()
	dir := StepDir(root, step)
	if err := WriteShard(dir, 0, BuildTree(shardedParams(t, 1, 4, 2, fill)[0], nil)); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStepDirNameRoundTrip(t *testing.T) {
	for _, step := range []int{0, 1, 7, 123456789} {
		got, ok := stepOf(StepDirName(step))
		if !ok || got != step {
			t.Fatalf("stepOf(%q) = %d, %v; want %d", StepDirName(step), got, ok, step)
		}
	}
	// Non-canonical digit strings StepDirName never produces must not
	// parse either: "step-7" would otherwise resolve to the *different*
	// path step-00000007 in ListSteps/LatestDir/prune.
	for _, name := range []string{"step-", "step-12x", "shard-0001.bin", "steps-1", "12", "step-7", "step-007", "step-000000007"} {
		if _, ok := stepOf(name); ok {
			t.Fatalf("stepOf(%q) must not parse", name)
		}
	}
}

func TestListStepsIgnoresNonCanonicalStepDirs(t *testing.T) {
	root := t.TempDir()
	commitAt(t, root, 3)
	// A foreign, unpadded "step-7" directory — even a committed one — is
	// not this package's: it must neither shadow the latest nor be
	// resolved to the wrong (padded) path.
	foreign := filepath.Join(root, "step-7")
	saveRanks(t, foreign, shardedParams(t, 1, 4, 2, fill), nil, Manifest{Step: 7})
	steps, err := ListSteps(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0] != 3 {
		t.Fatalf("steps = %v, want [3]", steps)
	}
	dir, err := LatestDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if dir != StepDir(root, 3) {
		t.Fatalf("latest = %s, want the canonical step-3", dir)
	}
	if _, err := prune(root, 3, 1); err != nil {
		t.Fatal(err)
	}
	if !Committed(foreign) {
		t.Fatal("prune must not touch foreign directories")
	}
}

func TestLatestDirMixedLayoutsPicksNewerStep(t *testing.T) {
	// A root that is itself a committed checkpoint (a plain directory, as
	// the benchmark's traced pass writes one) next to newer step subdirectories
	// must resolve to the newest step directory, never silently rolling
	// back to the older save.
	root := t.TempDir()
	saveRanks(t, root, shardedParams(t, 1, 4, 2, fill), nil, Manifest{Step: 5})
	commitAt(t, root, 20)
	dir, err := LatestDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if dir != StepDir(root, 20) {
		t.Fatalf("latest = %s, want the newer step-20 over the stale root (step 5)", dir)
	}
}

func TestListStepsSkipsPartialAndForeignEntries(t *testing.T) {
	root := t.TempDir()
	commitAt(t, root, 10)
	commitAt(t, root, 30)
	commitAt(t, root, 20)
	partialAt(t, root, 40)
	if err := os.MkdirAll(filepath.Join(root, "not-a-step"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	steps, err := ListSteps(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0] != 10 || steps[1] != 20 || steps[2] != 30 {
		t.Fatalf("steps = %v, want [10 20 30] (ascending, committed only)", steps)
	}
	// A missing root is an empty listing, not an error.
	steps, err = ListSteps(filepath.Join(root, "nope"))
	if err != nil || steps != nil {
		t.Fatalf("missing root: steps=%v err=%v", steps, err)
	}
}

func TestLatestDirPrefersNewestCommitted(t *testing.T) {
	root := t.TempDir()
	commitAt(t, root, 10)
	commitAt(t, root, 20)
	// A newer partial save must not shadow the newest complete one: this
	// is resume-from-latest after a crash mid-save.
	partialAt(t, root, 30)
	dir, err := LatestDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if dir != StepDir(root, 20) {
		t.Fatalf("latest = %s, want the committed step-20", dir)
	}
	ck, err := OpenLatest(root)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Step != 20 {
		t.Fatalf("opened step %d, want 20", ck.Manifest.Step)
	}
}

func TestLatestDirSingleSlotLayout(t *testing.T) {
	// A directory that is itself a committed checkpoint and holds no step
	// directory (a copy of one, or a step directory named directly)
	// resolves to itself.
	dir := t.TempDir()
	saveRanks(t, dir, shardedParams(t, 1, 4, 2, fill), nil, Manifest{Step: 5})
	got, err := LatestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != dir {
		t.Fatalf("latest = %s, want the plain checkpoint dir itself", got)
	}
}

func TestLatestDirFailsWithoutCommittedCheckpoint(t *testing.T) {
	root := t.TempDir()
	if _, err := LatestDir(root); err == nil {
		t.Fatal("empty root must not resolve")
	}
	partialAt(t, root, 10)
	if _, err := LatestDir(root); err == nil {
		t.Fatal("a root holding only partial saves must not resolve")
	}
}

func TestPruneKeepsNewestAndReportsOldest(t *testing.T) {
	root := t.TempDir()
	for _, step := range []int{1, 2, 3, 4, 5} {
		commitAt(t, root, step)
	}
	pruned, err := prune(root, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 3 || pruned[0] != 1 || pruned[1] != 2 || pruned[2] != 3 {
		t.Fatalf("pruned = %v, want the oldest [1 2 3] in order", pruned)
	}
	steps, err := ListSteps(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0] != 4 || steps[1] != 5 {
		t.Fatalf("remaining = %v, want [4 5]", steps)
	}
	// Idempotent below the limit.
	pruned, err = prune(root, 5, 2)
	if err != nil || pruned != nil {
		t.Fatalf("second prune: %v, %v", pruned, err)
	}
}

func TestPruneNeverTouchesUncommittedDirs(t *testing.T) {
	// The directory being written (shards present, manifest not yet) must
	// survive pruning no matter how deep the retention limit cuts.
	root := t.TempDir()
	for _, step := range []int{1, 2, 3} {
		commitAt(t, root, step)
	}
	inflight := partialAt(t, root, 4)
	if _, err := prune(root, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(inflight, ShardFile(0))); err != nil {
		t.Fatalf("in-flight save was pruned: %v", err)
	}
	steps, err := ListSteps(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0] != 3 {
		t.Fatalf("remaining committed = %v, want [3]", steps)
	}
}

// TestCommitPrunesAboveAndKeepsNewest: a commit at step s deletes every
// committed step above s (a trajectory the run has left) and all but the
// newest keep at or below it; it never touches an uncommitted directory,
// and it never writes a manifest into the root.
func TestCommitPrunesAboveAndKeepsNewest(t *testing.T) {
	root := t.TempDir()
	commitAt(t, root, 1)
	commitAt(t, root, 3)
	commitAt(t, root, 4)
	debris := partialAt(t, root, 6)
	partialAt(t, root, 2)
	if err := Commit(root, Manifest{World: 1, Step: 2}, 1); err != nil {
		t.Fatal(err)
	}
	if steps, err := ListSteps(root); err != nil || len(steps) != 1 || steps[0] != 2 {
		t.Fatalf("after the step-2 commit at keep 1: steps %v (err %v), want [2]", steps, err)
	}
	partialAt(t, root, 3)
	if err := Commit(root, Manifest{World: 1, Step: 3}, 2); err != nil {
		t.Fatal(err)
	}
	if steps, err := ListSteps(root); err != nil || len(steps) != 2 || steps[0] != 2 || steps[1] != 3 {
		t.Fatalf("after the step-3 commit at keep 2: steps %v (err %v), want [2 3]", steps, err)
	}
	if _, err := os.Stat(filepath.Join(debris, ShardFile(0))); err != nil {
		t.Fatalf("an uncommitted step directory was pruned: %v", err)
	}
	if Committed(root) {
		t.Fatal("Commit wrote a manifest into the root")
	}
	ck, err := OpenLatest(root)
	if err != nil || ck.Manifest.Step != 3 {
		t.Fatalf("OpenLatest: %v, want step 3", err)
	}
}

func TestPruneRejectsZeroKeep(t *testing.T) {
	if _, err := prune(t.TempDir(), 0, 0); err == nil {
		t.Fatal("keep < 1 must be rejected: retention never deletes the last checkpoint")
	}
}
