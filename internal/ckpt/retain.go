// The checkpoint layout. A checkpoint root (train.Options.CheckpointDir)
// holds one step-numbered subdirectory per committed checkpoint, each a
// complete checkpoint (shards + manifest). Every save writes its shards
// into StepDir(root, step) and then calls Commit, which writes the
// manifest, makes the step directory's entry in the root durable and
// prunes; train.Options.CheckpointKeep says how many commits to keep.
//
// Safety rules, enforced here and covered by the package tests:
//
//   - A checkpoint is committed exactly when its MANIFEST.json exists (the
//     same commit point the writers use). Only committed checkpoints are
//     retention candidates.
//   - Pruning never touches an uncommitted directory — in particular the
//     directory a save is still writing, whose manifest lands last — nor
//     any entry it does not recognize as a step directory.
//   - LatestDir resolves to the newest *committed* checkpoint, so a crash
//     that left a partial (manifest-less) save behind resumes from the
//     previous complete one instead of failing on the debris.

package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stepDirPrefix prefixes retention subdirectory names; the suffix is the
// zero-padded optimizer step the checkpoint was committed at.
const stepDirPrefix = "step-"

// StepDirName returns the retention subdirectory name for a checkpoint
// committed at the given optimizer step.
func StepDirName(step int) string { return fmt.Sprintf("%s%08d", stepDirPrefix, step) }

// StepDir returns the retention subdirectory path for a step under root.
func StepDir(root string, step int) string { return filepath.Join(root, StepDirName(step)) }

// stepOf parses a retention subdirectory name back into its step; ok is
// false for names this package did not generate — including non-canonical
// digit strings (unpadded "step-7"), which would otherwise resolve to a
// different path than the directory they name.
func stepOf(name string) (step int, ok bool) {
	digits, found := strings.CutPrefix(name, stepDirPrefix)
	if !found || digits == "" {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		step = step*10 + int(c-'0')
	}
	if StepDirName(step) != name {
		return 0, false
	}
	return step, true
}

// Committed reports whether dir holds a complete checkpoint: the manifest
// is written last, so its presence is the commit point.
func Committed(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil
}

// ListSteps returns the steps of every committed checkpoint under root, in
// ascending order. Uncommitted (partial) step directories and entries this
// package did not create are skipped. A missing root lists as empty.
func ListSteps(root string) ([]int, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading retention root: %w", err)
	}
	var steps []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		step, ok := stepOf(e.Name())
		if !ok || !Committed(filepath.Join(root, e.Name())) {
			continue
		}
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}

// LatestDir resolves dir to its newest complete checkpoint: the
// highest-step committed step directory under it, or, when it has none and
// is itself a committed checkpoint (a plain checkpoint directory, such as
// a copy of one step directory or a step directory named directly), dir
// itself. It fails when no complete checkpoint exists — including when
// only partial saves are present.
func LatestDir(dir string) (string, error) {
	steps, err := ListSteps(dir)
	if err != nil {
		return "", err
	}
	if len(steps) > 0 {
		return StepDir(dir, steps[len(steps)-1]), nil
	}
	if Committed(dir) {
		return dir, nil
	}
	return "", fmt.Errorf("ckpt: no committed checkpoint under %s", dir)
}

// OpenLatest opens the newest complete checkpoint under dir (see
// LatestDir).
func OpenLatest(dir string) (*Checkpoint, error) {
	latest, err := LatestDir(dir)
	if err != nil {
		return nil, err
	}
	return Open(latest)
}

// Commit commits the checkpoint whose shards every saving rank has already
// written into StepDir(root, m.Step): it writes the manifest there (the
// commit point), fsyncs root so the step directory's own entry survives a
// power loss, then prunes root to the newest keep commits (keep >= 1).
func Commit(root string, m Manifest, keep int) error {
	if err := WriteManifest(StepDir(root, m.Step), m); err != nil {
		return err
	}
	if err := syncDir(root); err != nil {
		return fmt.Errorf("ckpt: syncing checkpoint root: %w", err)
	}
	_, err := prune(root, m.Step, keep)
	return err
}

// prune applies the retention rule after the commit at step: it deletes
// every committed step directory above step — a trajectory this run has
// left, such as an earlier run's in the same root — then all but the
// newest keep committed step directories at or below it, and returns the
// deleted steps in that order. Directories without a manifest — a save
// still in flight, or debris from a crash — are never deleted. keep must
// be at least 1: retention never removes the commit it follows.
func prune(root string, step, keep int) ([]int, error) {
	if keep < 1 {
		return nil, fmt.Errorf("ckpt: retention must keep at least 1 checkpoint, got %d", keep)
	}
	steps, err := ListSteps(root)
	if err != nil {
		return nil, err
	}
	at := sort.SearchInts(steps, step+1)
	doomed := append([]int(nil), steps[at:]...)
	if at > keep {
		doomed = append(doomed, steps[:at-keep]...)
	}
	for _, s := range doomed {
		if err := os.RemoveAll(StepDir(root, s)); err != nil {
			return nil, fmt.Errorf("ckpt: pruning step %d: %w", s, err)
		}
	}
	return doomed, nil
}
