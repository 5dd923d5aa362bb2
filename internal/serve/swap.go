package serve

import (
	"fmt"

	"repro/internal/ckpt"
)

// Swap hot-swaps the served model: it loads src beside the current instance
// (requests keep flowing the whole time), atomically redirects routing to
// the new instance, waits for every micro-batch dispatched against the old
// one to be answered, unloads it, and invalidates its cache entries. No
// request is dropped: batches assembled before the swap run on the old
// model, batches after it on the new one.
//
// The new model must share the engine's request geometry (channels, grid,
// patch) — clients' requests are validated against it; partition layout and
// weights are free to differ, which is exactly the live checkpoint
// replication case.
func (e *Engine) Swap(src Source) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	if e.closedForSubmit() {
		return ErrClosed
	}
	na := src.Arch()
	a := e.arch
	if na.Channels != a.Channels || na.ImgH != a.ImgH || na.ImgW != a.ImgW || na.Patch != a.Patch {
		return fmt.Errorf("serve: swap geometry mismatch: engine serves %dx%dx%d patch %d, source is %dx%dx%d patch %d",
			a.Channels, a.ImgH, a.ImgW, a.Patch, na.Channels, na.ImgH, na.ImgW, na.Patch)
	}
	inst, err := e.host.load(src, e.cfg.DType)
	if err != nil {
		return err
	}
	e.instMu.Lock()
	old := e.inst
	e.inst = inst
	e.instMu.Unlock()
	// Drain: every batch that acquired old before the pointer swap has
	// bumped its in-flight count under the same lock, so Wait observes all
	// of them; teardown paths fail rather than strand them.
	old.wg.Wait()
	e.host.unload(old)
	if e.cache != nil {
		// After the drain no late fill can target the old instance, so the
		// invalidation is final; the new instance's fingerprints differ by
		// id and start cold.
		e.cache.invalidate(old.id)
	}
	e.metrics.noteSwap()
	return nil
}

// AutoSwap watches a checkpoint directory (ckpt.WatchLatest) and hot-swaps
// the engine to each newly committed checkpoint — live model replication
// into a running engine. Geometry-incompatible or unreadable checkpoints,
// and ones FromCheckpoint refuses, are skipped (the engine keeps serving
// its current model). The optional
// onSwap callback observes every attempt with its outcome; it runs on the
// watch goroutine, so it must not block. The returned stop function ends
// the watch and waits for the goroutine to exit.
func (e *Engine) AutoSwap(dir string, opt ckpt.WatchOptions, onSwap func(ckpt.Update, error)) (stop func()) {
	updates, stopWatch := ckpt.WatchLatest(dir, opt)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := range updates {
			// The update's Dir is itself a committed checkpoint directory
			// (the newest step directory, or dir itself when it is one).
			src, err := FromCheckpoint(u.Dir)
			if err == nil {
				err = e.Swap(src)
			}
			if onSwap != nil {
				onSwap(u, err)
			}
		}
	}()
	return func() {
		stopWatch()
		<-done
	}
}
