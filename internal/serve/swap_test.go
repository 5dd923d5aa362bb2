package serve

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/leakcheck"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/train"
)

// trainSteps trains the test model for `steps` steps distributed over
// `ranks` goroutine ranks and writes a shard-per-rank checkpoint; two step
// counts give two checkpoints of one architecture with different weights.
func trainSteps(t *testing.T, dir string, ranks, steps int) model.Arch {
	t.Helper()
	a := testArch()
	gen := data.NewHyperspectral(data.HyperspectralConfig{
		Images: 8, Channels: a.Channels, ImgH: a.ImgH, ImgW: a.ImgW,
		Endmembers: 2, Noise: 0.01, Seed: 9,
	})
	batch := func(s int) (*tensor.Tensor, *tensor.Tensor) {
		x := gen.Batch(s*2, 2)
		return x, x
	}
	opts := train.Options{
		Steps: steps, Batch: 2, LR: 1e-3, MaskRatio: 0.5, Seed: 11,
		CheckpointDir: dir,
	}
	if _, _, err := train.Distributed(a, ranks, false, opts, batch); err != nil {
		t.Fatal(err)
	}
	return a
}

// serialOracle restores a checkpoint into the serial-equivalent model — the
// bitwise ground truth for what serving that checkpoint must answer.
func serialOracle(t *testing.T, dir string) *model.FoundationModel {
	t.Helper()
	src, err := FromCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := src.(ckptSource)
	sm := model.NewSerialDCHAGEquivalent(cs.arch, cs.arch.Partitions)
	if err := cs.ck.RestoreParams(sm.Params()); err != nil {
		t.Fatal(err)
	}
	return sm
}

func predictOracle(sm *model.FoundationModel, a model.Arch, x *tensor.Tensor) *tensor.Tensor {
	return sm.PredictImage(x.Reshape(1, a.Channels, a.ImgH, a.ImgW)).Reshape(a.Channels, a.ImgH, a.ImgW)
}

// TestSwapUnderLoad is the hot-swap acceptance test: 32 clients hammer the
// engine while a newly trained checkpoint is swapped in. That is more than
// the replicas and the work buffer hold, so batches for the old instance
// are queued for the mesh whenever the new one loads. Zero requests
// may fail or drop, the stats must show exactly one swap, and every answer —
// before, during and after the swap — equals, bit for bit, either the old or
// the new checkpoint's serial answer for its input. During the swap both
// instances are loaded and their batches interleave on the followers, so a
// follower that ran a batch on the wrong instance answers with neither. The
// uncached leg sends every request through the mesh; the cached one pins
// that the cache serves no mixed answer either. The leakcheck pins that
// draining the old instance strands no goroutine.
func TestSwapUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	dir1, dir2 := t.TempDir(), t.TempDir()
	a := trainSteps(t, dir1, 4, 2)
	trainSteps(t, dir2, 4, 4) // more steps: same geometry, different weights

	src1, err := FromCheckpoint(dir1)
	if err != nil {
		t.Fatal(err)
	}
	src2, err := FromCheckpoint(dir2)
	if err != nil {
		t.Fatal(err)
	}
	sm1, sm2 := serialOracle(t, dir1), serialOracle(t, dir2)
	inputs := make([]*tensor.Tensor, 4)
	var olds, news [4]*tensor.Tensor
	for i := range inputs {
		inputs[i] = testInput(a, int64(60+i), a.ImgH, a.ImgW)
		olds[i], news[i] = predictOracle(sm1, a, inputs[i]), predictOracle(sm2, a, inputs[i])
		if tensor.MaxAbsDiff(olds[i], news[i]) == 0 {
			t.Fatalf("input %d: both checkpoints answer identically; the swap test proves nothing", i)
		}
	}

	for _, cacheBytes := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			e := startTest(t, Config{
				Ranks: 2, Replicas: 2, MaxBatch: 4, MaxWait: 2 * time.Millisecond,
				QueueDepth: 64, CacheBytes: cacheBytes,
			}, src1)
			const requests, clients = 600, 32
			var next atomic.Int64
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < requests; i = int(next.Add(1)) - 1 {
						k := i % len(inputs)
						resp, err := e.Do(context.Background(), &Request{Input: inputs[k]})
						if err != nil {
							errs <- fmt.Errorf("request %d failed across the swap: %w", i, err)
							return
						}
						if tensor.MaxAbsDiff(resp.Output, olds[k]) != 0 && tensor.MaxAbsDiff(resp.Output, news[k]) != 0 {
							errs <- fmt.Errorf("request %d (input %d) answered with neither checkpoint's bits", i, k)
							return
						}
					}
				}()
			}
			// Swap once traffic is demonstrably flowing, so batches formed
			// against the old instance are genuinely in flight while the new
			// one loads and routing flips.
			for e.Metrics().Snapshot().Completed+e.Metrics().Snapshot().CacheHits == 0 {
				time.Sleep(time.Millisecond)
			}
			if err := e.Swap(src2); err != nil {
				t.Errorf("swap under load: %v", err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				return
			}
			snap := e.Metrics().Snapshot()
			if snap.Swaps != 1 {
				t.Fatalf("stats show %d swaps, want exactly 1", snap.Swaps)
			}
			if snap.Failed != 0 {
				t.Fatalf("%d requests failed engine-side across the swap", snap.Failed)
			}

			// The engine now answers for the new checkpoint, bitwise.
			x := testInput(a, 70, a.ImgH, a.ImgW)
			resp, err := e.Do(context.Background(), &Request{Input: x})
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(resp.Output, predictOracle(sm2, a, x)); d != 0 {
				t.Fatalf("post-swap answer differs from the new checkpoint's serial restore by %g", d)
			}
		})
	}
}

// TestSwapInvalidatesCache pins the cache/swap interaction: entries cached
// against the old model must not survive the swap, and the new model's
// answers repopulate the cache under fresh fingerprints.
func TestSwapInvalidatesCache(t *testing.T) {
	a := testArch()
	a2 := a
	a2.Seed = 7 // same geometry, different weights
	cfg := cacheTestConfig()
	e := startTest(t, cfg, FromArch(a))
	x := testInput(a, 55, a.ImgH, a.ImgW)

	cold, err := e.Do(context.Background(), &Request{Input: x})
	if err != nil {
		t.Fatal(err)
	}
	if hot, err := e.Do(context.Background(), &Request{Input: x}); err != nil || !hot.Cached {
		t.Fatalf("pre-swap resubmission not cached (err %v)", err)
	}

	if err := e.Swap(FromArch(a2)); err != nil {
		t.Fatal(err)
	}
	fresh, err := e.Do(context.Background(), &Request{Input: x})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("post-swap request served from the old model's cache")
	}
	if d := tensor.MaxAbsDiff(fresh.Output, reference(t, a2, x)); d != 0 {
		t.Fatalf("post-swap answer differs from the new model by %g", d)
	}
	if d := tensor.MaxAbsDiff(fresh.Output, cold.Output); d == 0 {
		t.Fatal("swapped models answered identically; the swap test proves nothing")
	}
	if hot, err := e.Do(context.Background(), &Request{Input: x}); err != nil || !hot.Cached {
		t.Fatalf("post-swap resubmission not re-cached (err %v)", err)
	}
}

// TestSwapGeometryMismatch pins the guard: a source whose request geometry
// differs is rejected and the engine keeps serving its current model.
func TestSwapGeometryMismatch(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 1, Replicas: 1, MaxBatch: 2}, FromArch(a))
	bad := a
	bad.Channels = 4
	bad.Partitions = 2
	if err := e.Swap(FromArch(bad)); err == nil {
		t.Fatal("swap accepted a geometry-incompatible source")
	}
	x := testInput(a, 56, a.ImgH, a.ImgW)
	if _, err := e.Do(context.Background(), &Request{Input: x}); err != nil {
		t.Fatalf("engine stopped serving after a rejected swap: %v", err)
	}
	if snap := e.Metrics().Snapshot(); snap.Swaps != 0 {
		t.Fatalf("rejected swap was counted: %+v", snap)
	}
}

// TestAutoSwapLiveCheckpoint is live model replication end to end: an
// engine serves a checkpoint root while training commits into it at a
// higher step; the AutoSwap watcher notices the committed manifest and hot
// swaps, after which the engine answers for the new weights bitwise.
func TestAutoSwapLiveCheckpoint(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	a := trainSteps(t, dir, 2, 2)
	src, err := FromCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := startTest(t, Config{
		Ranks: 2, Replicas: 1, MaxBatch: 4, MaxWait: 2 * time.Millisecond,
		CacheBytes: 1 << 20,
	}, src)

	swapped := make(chan error, 16)
	stop := e.AutoSwap(dir, ckpt.WatchOptions{Interval: 2 * time.Millisecond}, func(u ckpt.Update, err error) {
		swapped <- err
	})
	defer stop()

	// Training into the same root commits a step-4 directory; its manifest
	// (written last) is the commit point.
	trainSteps(t, dir, 2, 4)
	select {
	case err := <-swapped:
		if err != nil {
			t.Fatalf("auto swap failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no auto swap within 10s of the new checkpoint committing")
	}
	if snap := e.Metrics().Snapshot(); snap.Swaps != 1 {
		t.Fatalf("stats show %d swaps, want exactly 1", snap.Swaps)
	}
	sm := serialOracle(t, dir)
	x := testInput(a, 71, a.ImgH, a.ImgW)
	resp, err := e.Do(context.Background(), &Request{Input: x})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(resp.Output, predictOracle(sm, a, x)); d != 0 {
		t.Fatalf("post-auto-swap answer differs from the new checkpoint's serial restore by %g", d)
	}
}

// TestAutoSwapSkipsBadArchRecord: a commit whose architecture record no
// model can be built from reaches onSwap as an error, and the engine keeps
// serving the checkpoint it had, bit for bit. Each bad commit is a newer
// step trained in a staging root, its record rewritten, then renamed into
// the watched root, so its manifest appears with its shards.
func TestAutoSwapSkipsBadArchRecord(t *testing.T) {
	leakcheck.Check(t)
	root := t.TempDir()
	a := trainSteps(t, root, 2, 2)
	sm := serialOracle(t, root)
	src, err := FromCheckpoint(root)
	if err != nil {
		t.Fatal(err)
	}
	e := startTest(t, Config{Ranks: 2, Replicas: 1, MaxBatch: 4, MaxWait: 2 * time.Millisecond}, src)

	swapped := make(chan error, 16)
	stop := e.AutoSwap(root, ckpt.WatchOptions{Interval: 2 * time.Millisecond}, func(u ckpt.Update, err error) {
		swapped <- err
	})
	defer stop()

	for i, bad := range badArchs {
		step := 3 + i
		staging := t.TempDir()
		trainSteps(t, staging, 2, step)
		dir := ckpt.StepDir(staging, step)
		setArchRecord(t, dir, bad.set)
		if err := os.Rename(dir, ckpt.StepDir(root, step)); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-swapped:
			if err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Fatalf("%s: want the commit refused naming %q, got %v", bad.name, bad.want, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no swap attempt within 10s of the commit", bad.name)
		}
	}
	if snap := e.Metrics().Snapshot(); snap.Swaps != 0 {
		t.Fatalf("stats show %d swaps, want none", snap.Swaps)
	}
	x := testInput(a, 72, a.ImgH, a.ImgW)
	resp, err := e.Do(context.Background(), &Request{Input: x})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(resp.Output, predictOracle(sm, a, x)); d != 0 {
		t.Fatalf("answer after the refused commits differs from the served checkpoint's by %g", d)
	}
}
