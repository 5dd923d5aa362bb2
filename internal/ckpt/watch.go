package ckpt

import (
	"time"
)

// WatchOptions tunes WatchLatest's polling loop.
type WatchOptions struct {
	// Interval is the base poll period (default 250ms). While nothing
	// changes the watcher backs off by doubling up to MaxInterval, and
	// resets to Interval the moment a new checkpoint commits, so a quiet
	// directory costs almost nothing and a busy one is noticed fast.
	Interval time.Duration
	// MaxInterval caps the backoff (default 8*Interval).
	MaxInterval time.Duration
}

func (o WatchOptions) withDefaults() WatchOptions {
	if o.Interval <= 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.MaxInterval < o.Interval {
		o.MaxInterval = 8 * o.Interval
	}
	return o
}

// Update is one WatchLatest emission: a newly committed checkpoint.
type Update struct {
	// Dir is the resolved directory of the newest complete checkpoint
	// (ckpt.LatestDir: the newest committed step subdirectory, or the
	// watched directory itself when it is a plain checkpoint directory).
	Dir string
	// Step is the manifest's optimizer step count.
	Step int
}

// WatchLatest polls dir for newly committed checkpoints and emits an
// Update for each one that supersedes the last state seen — the live
// replication signal behind hot checkpoint swap. The first poll
// establishes the baseline (the checkpoint already present, if any) and
// is NOT emitted: only checkpoints that commit after the watch starts
// flow out, so a serving engine already loaded from dir is never asked
// to swap to the model it is serving.
//
// Commit detection reuses the retention rules: a checkpoint exists
// exactly when its MANIFEST.json does (LatestDir), so partial saves —
// a shard-writing crash, a directory mid-write — are never emitted.
// A newer checkpoint is detected by the manifest's step count, not just
// the resolved path, so in-place re-saves of a plain checkpoint directory
// emit too.
//
// The channel is buffered one update deep with latest-wins semantics: a
// slow consumer sees the newest committed checkpoint, not a backlog of
// superseded ones. Call stop to end the watch; it blocks until the
// polling goroutine has exited (leak-check friendly) and the channel is
// closed.
func WatchLatest(dir string, opt WatchOptions) (<-chan Update, func()) {
	opt = opt.withDefaults()
	updates := make(chan Update, 1)
	quit := make(chan struct{})
	done := make(chan struct{})
	// The baseline resolves synchronously: a checkpoint committed the
	// instant after WatchLatest returns is already "new" and will emit.
	lastDir, lastStep, seen := resolveLatest(dir)
	go func() {
		defer close(done)
		defer close(updates)
		wait := opt.Interval
		timer := time.NewTimer(wait)
		defer timer.Stop()
		for {
			select {
			case <-quit:
				return
			case <-timer.C:
			}
			curDir, curStep, ok := resolveLatest(dir)
			if ok && (!seen || curStep > lastStep || (curStep == lastStep && curDir != lastDir)) {
				lastDir, lastStep, seen = curDir, curStep, true
				// Latest wins: replace any unconsumed update.
				select {
				case <-updates:
				default:
				}
				select {
				case updates <- Update{Dir: curDir, Step: curStep}:
				case <-quit:
					return
				}
				wait = opt.Interval
			} else {
				wait *= 2
				if wait > opt.MaxInterval {
					wait = opt.MaxInterval
				}
			}
			timer.Reset(wait)
		}
	}()
	return updates, func() {
		close(quit)
		<-done
	}
}

// resolveLatest resolves dir's newest complete checkpoint and its step,
// reporting ok=false when none exists (including when only partial,
// manifest-less saves are present) or the manifest cannot be read —
// a checkpoint mid-commit simply shows up on a later poll.
func resolveLatest(dir string) (string, int, bool) {
	latest, err := LatestDir(dir)
	if err != nil {
		return "", 0, false
	}
	m, err := ReadManifest(latest)
	if err != nil {
		return "", 0, false
	}
	return latest, m.Step, true
}
