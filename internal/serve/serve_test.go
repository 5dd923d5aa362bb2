package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/leakcheck"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/train"
)

// testArch is the tiny serving-test architecture: 8 channels in 4 logical
// partitions, so checkpoints reshard across q in {1, 2, 4}.
func testArch() model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: 8, ImgH: 4, ImgW: 4, Patch: 2,
			Embed: 8, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 5,
		},
		Depth: 1, MetaTokens: 1, Partitions: 4,
	}
}

// testInput builds a deterministic [C, h, w] snapshot.
func testInput(a model.Arch, seed int64, h, w int) *tensor.Tensor {
	return tensor.Randn(tensor.NewRNG(seed), a.Channels, h, w)
}

// reference computes what the engine must answer for a fully-assembled
// [C, H, W] input: the serial-equivalent model's no-grad forecast.
func reference(t *testing.T, a model.Arch, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	m := model.NewSerialDCHAGEquivalent(a, a.Partitions)
	img := m.PredictImage(x.Reshape(1, a.Channels, a.ImgH, a.ImgW))
	return img.Reshape(a.Channels, a.ImgH, a.ImgW)
}

func startTest(t *testing.T, cfg Config, src Source) *Engine {
	t.Helper()
	// Registered before the Close cleanup, so it runs after it: a Close
	// that strands a leader or worker goroutine fails the test.
	leakcheck.Check(t)
	e, err := Start(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("engine did not close cleanly: %v", err)
		}
	})
	return e
}

// TestServeMatchesDirectInference pins the end-to-end answer: a request
// through queue, batcher, and a 2-rank replica equals the serial model's
// direct no-grad forecast, bit for bit.
func TestServeMatchesDirectInference(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 2, Replicas: 1, MaxBatch: 4, MaxWait: 5 * time.Millisecond}, FromArch(a))
	x := testInput(a, 1, a.ImgH, a.ImgW)
	want := reference(t, a, x)

	resp, err := e.Do(context.Background(), &Request{ID: "r0", Input: x})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "r0" || resp.BatchSize < 1 {
		t.Fatalf("bad response metadata: %+v", resp)
	}
	if d := tensor.MaxAbsDiff(resp.Output, want); d != 0 {
		t.Fatalf("served output differs from direct inference by %g", d)
	}
}

// TestRegridAndPartialChannels pins the batcher's input adaptation: a
// coarse-grid request is bilinearly regridded, and a partial channel set is
// scattered onto a zero canvas — both must match a direct forward on the
// equivalently assembled input.
func TestRegridAndPartialChannels(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 2, Replicas: 1, MaxBatch: 2, MaxWait: time.Millisecond}, FromArch(a))

	t.Run("regrid", func(t *testing.T) {
		coarse := testInput(a, 2, 8, 8) // finer grid than the model's 4x4
		want := reference(t, a, data.RegridBatch(coarse, a.ImgH, a.ImgW))
		resp, err := e.Do(context.Background(), &Request{Input: coarse})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(resp.Output, want); d != 0 {
			t.Fatalf("regridded request differs from direct inference by %g", d)
		}
	})

	t.Run("partial-channels", func(t *testing.T) {
		channels := []int{1, 4, 6}
		part := tensor.Randn(tensor.NewRNG(3), len(channels), a.ImgH, a.ImgW)
		canvas := tensor.New(a.Channels, a.ImgH, a.ImgW)
		hw := a.ImgH * a.ImgW
		for r, ch := range channels {
			copy(canvas.Data[ch*hw:(ch+1)*hw], part.Data[r*hw:(r+1)*hw])
		}
		want := reference(t, a, canvas)
		resp, err := e.Do(context.Background(), &Request{Input: part, Channels: channels})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(resp.Output, want); d != 0 {
			t.Fatalf("partial-channel request differs from direct inference by %g", d)
		}
	})
}

// trainCheckpoint trains the test model distributed over `ranks` goroutine
// ranks and writes a shard-per-rank checkpoint.
func trainCheckpoint(t *testing.T, dir string, ranks int) model.Arch {
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
		Steps: 2, Batch: 2, LR: 1e-3, MaskRatio: 0.5, Seed: 11,
		CheckpointDir: dir,
	}
	if _, _, err := train.Distributed(a, ranks, false, opts, batch); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReshardedCheckpointServing is the acceptance round trip: a checkpoint
// saved at 4 ranks is served at 2 ranks x 2 replicas (a different q), and
// every answer matches the serial restore of the same checkpoint bitwise.
// The architecture comes from the manifest alone.
func TestReshardedCheckpointServing(t *testing.T) {
	dir := t.TempDir()
	a := trainCheckpoint(t, dir, 4)

	src, err := FromCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := src.Arch()
	if got.Channels != a.Channels || got.Embed != a.Embed || got.Depth != a.Depth || got.Partitions != a.Partitions {
		t.Fatalf("manifest arch %+v does not match trained arch %+v", got, a)
	}

	// Serial restore of the same checkpoint is the oracle.
	oracle, err := FromCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	srcSerial := oracle.(ckptSource)
	sm := model.NewSerialDCHAGEquivalent(srcSerial.arch, srcSerial.arch.Partitions)
	if err := srcSerial.ck.RestoreParams(sm.Params()); err != nil {
		t.Fatal(err)
	}

	e := startTest(t, Config{Ranks: 2, Replicas: 2, MaxBatch: 4, MaxWait: 2 * time.Millisecond}, src)
	for i := 0; i < 6; i++ {
		x := testInput(a, int64(20+i), a.ImgH, a.ImgW)
		want := sm.PredictImage(x.Reshape(1, a.Channels, a.ImgH, a.ImgW)).Reshape(a.Channels, a.ImgH, a.ImgW)
		resp, err := e.Do(context.Background(), &Request{ID: fmt.Sprint(i), Input: x})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(resp.Output, want); d != 0 {
			t.Fatalf("request %d: resharded serving differs from serial restore by %g", i, d)
		}
	}
}

// TestServingTopologyMismatch pins the Start-time error: 3 serving ranks do
// not divide 4 logical partitions.
func TestServingTopologyMismatch(t *testing.T) {
	dir := t.TempDir()
	trainCheckpoint(t, dir, 2)
	src, err := FromCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(Config{Ranks: 3, Replicas: 1}, src); err == nil {
		t.Fatal("Start must reject a rank count that does not divide the partition count")
	}
}

// TestBatcherAggregates pins the dynamic micro-batcher: a burst submitted
// while the single replica is busy backs up the queue, so later requests
// coalesce into multi-request batches capped at MaxBatch. (A lone request
// never waits: the batcher flushes early whenever the queue is empty and a
// dispatch slot is free, so aggregation appears exactly when there is
// queue pressure.)
func TestBatcherAggregates(t *testing.T) {
	a := testArch()
	const n, maxBatch = 16, 4
	e := startTest(t, Config{Ranks: 1, Replicas: 1, MaxBatch: maxBatch, MaxWait: 200 * time.Millisecond, QueueDepth: 64}, FromArch(a))

	x := testInput(a, 30, a.ImgH, a.ImgW)
	var chans []<-chan Response
	for i := 0; i < n; i++ {
		ch, err := e.Submit(&Request{ID: fmt.Sprint(i), Input: x})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.BatchSize < 1 || r.BatchSize > maxBatch {
			t.Fatalf("request %d served in batch of %d, cap %d", i, r.BatchSize, maxBatch)
		}
		if r.Queued > time.Minute || r.Total < r.Queued {
			t.Fatalf("implausible latencies: %+v", r)
		}
	}
	snap := e.Metrics().Snapshot()
	if snap.Completed != n {
		t.Fatalf("completed %d of %d", snap.Completed, n)
	}
	// The burst outpaces the replica (each forward takes ~100µs, the burst
	// lands in ~µs), so the queue must have forced real aggregation.
	if snap.Batches >= n || snap.MeanBatch <= 1 {
		t.Fatalf("burst of %d served in %d batches (mean %.2f): batcher never aggregated", n, snap.Batches, snap.MeanBatch)
	}
}

// TestAdmissionControl floods a depth-1 queue and verifies the engine
// rejects with ErrQueueFull instead of buffering unboundedly, then drains
// cleanly.
func TestAdmissionControl(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 1, Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond, QueueDepth: 1}, FromArch(a))
	x := testInput(a, 40, a.ImgH, a.ImgW)

	var pending []<-chan Response
	sawFull := false
	for i := 0; i < 10000 && !sawFull; i++ {
		ch, err := e.Submit(&Request{Input: x})
		switch {
		case err == nil:
			pending = append(pending, ch)
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("a depth-1 queue never rejected under a 10k-request flood")
	}
	for _, ch := range pending {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if snap := e.Metrics().Snapshot(); snap.Rejected == 0 {
		t.Fatalf("rejections not counted: %+v", snap)
	}
}

// TestRequestValidation pins the admission-time request checks.
func TestRequestValidation(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 1, Replicas: 1, MaxBatch: 1}, FromArch(a))
	bad := []*Request{
		nil,
		{},
		{Input: tensor.New(a.Channels, a.ImgH)}, // rank 2
		{Input: tensor.New(a.Channels+1, a.ImgH, a.ImgW)},                      // wrong channel count
		{Input: tensor.New(2, a.ImgH, a.ImgW), Channels: []int{0}},             // length mismatch
		{Input: tensor.New(2, a.ImgH, a.ImgW), Channels: []int{3, 1}},          // not increasing
		{Input: tensor.New(2, a.ImgH, a.ImgW), Channels: []int{0, a.Channels}}, // out of range
	}
	for i, req := range bad {
		if _, err := e.Submit(req); err == nil {
			t.Fatalf("bad request %d admitted", i)
		}
	}
}

// TestShortInputRejected pins the fix for a process-killing input: a tensor
// literal holding fewer values than its shape claims used to pass admission
// and panic in batch assembly on the batcher goroutine. It must be refused
// by Submit and Do with both counts named, and the engine must keep serving.
func TestShortInputRejected(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 1, Replicas: 1, MaxBatch: 1, CacheBytes: 1 << 20}, FromArch(a))
	short := &Request{Input: &tensor.Tensor{Data: make([]float64, 5), Shape: []int{a.Channels, a.ImgH, a.ImgW}}}
	want := fmt.Sprint(a.Channels * a.ImgH * a.ImgW)
	if _, err := e.Submit(short); err == nil || !strings.Contains(err.Error(), "5 values") || !strings.Contains(err.Error(), want) {
		t.Fatalf("Submit of a 5-value input for shape %v: err = %v", short.Input.Shape, err)
	}
	if _, err := e.Do(context.Background(), short); err == nil {
		t.Fatal("Do admitted a short input")
	}
	x := testInput(a, 9, a.ImgH, a.ImgW)
	resp, err := e.Do(context.Background(), &Request{Input: x})
	if err != nil {
		t.Fatalf("engine stopped serving after a refused request: %v", err)
	}
	if d := tensor.MaxAbsDiff(resp.Output, reference(t, a, x)); d != 0 {
		t.Fatalf("response after a refused request differs from direct inference by %g", d)
	}
}

// wrapExtent squared wraps an int to 0: 4294967296 where int has 64 bits.
const wrapExtent = 1 << (strconv.IntSize / 2)

// TestOverflowingShapeRejected pins that a shape whose element count wraps
// to its (empty) data's length is refused at admission, naming the shape,
// and that the engine keeps serving. Admitted, it indexes an empty slice on
// the batcher goroutine and takes the process down.
func TestOverflowingShapeRejected(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 1, Replicas: 1, MaxBatch: 1, CacheBytes: 1 << 20}, FromArch(a))
	huge := &Request{Input: &tensor.Tensor{Shape: []int{a.Channels, wrapExtent, wrapExtent}}}
	if _, err := e.Submit(huge); err == nil || !strings.Contains(err.Error(), fmt.Sprint(huge.Input.Shape)) {
		t.Fatalf("Submit of an empty input of shape %v: err = %v", huge.Input.Shape, err)
	}
	if _, err := e.Do(context.Background(), huge); err == nil || !strings.Contains(err.Error(), fmt.Sprint(huge.Input.Shape)) {
		t.Fatalf("Do of an empty input of shape %v: err = %v", huge.Input.Shape, err)
	}
	x := testInput(a, 9, a.ImgH, a.ImgW)
	resp, err := e.Do(context.Background(), &Request{Input: x})
	if err != nil {
		t.Fatalf("engine stopped serving after a refused request: %v", err)
	}
	if d := tensor.MaxAbsDiff(resp.Output, reference(t, a, x)); d != 0 {
		t.Fatalf("response after a refused request differs from direct inference by %g", d)
	}
}

// TestCloseSemantics pins shutdown: Close is idempotent, later Submits see
// ErrClosed, and Done closes with a nil Err.
func TestCloseSemantics(t *testing.T) {
	leakcheck.Check(t)
	a := testArch()
	e, err := Start(Config{Ranks: 2, Replicas: 2, MaxBatch: 2}, FromArch(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("clean close returned %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close returned %v", err)
	}
	select {
	case <-e.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
	if _, err := e.Submit(&Request{Input: testInput(a, 50, a.ImgH, a.ImgW)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Do(context.Background(), &Request{Input: testInput(a, 50, a.ImgH, a.ImgW)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

// brokenSource advertises one architecture but builds models of another,
// so the first forward panics inside a worker — a deterministic stand-in
// for any mid-serve replica failure.
type brokenSource struct {
	claimed model.Arch
	builds  Source
}

func (s brokenSource) Arch() model.Arch { return s.claimed }
func (s brokenSource) Build(tpc *comm.Communicator) (*model.FoundationModel, error) {
	return s.builds.Build(tpc)
}

// TestWorkerFailureFailsClients pins the failure plumbing: when a replica
// dies mid-batch, every outstanding client gets an error — in-flight batch,
// work buffer, and queue alike — and the engine reports the root cause
// instead of hanging anything.
func TestWorkerFailureFailsClients(t *testing.T) {
	leakcheck.Check(t)
	good := testArch()
	bad := good
	bad.Channels = good.Channels * 2 // engine assembles at twice the model's channels
	bad.Partitions = good.Partitions
	e, err := Start(Config{Ranks: 1, Replicas: 1, MaxBatch: 2, MaxWait: time.Millisecond, QueueDepth: 16},
		brokenSource{claimed: bad, builds: FromArch(good)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// The worker died on the channel mismatch; Close must surface that
		// root cause, not nil.
		if err := e.Close(); err == nil {
			t.Error("Close after worker failure returned nil, want the root cause")
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Do(context.Background(), &Request{Input: testInput(bad, int64(i), bad.ImgH, bad.ImgW)})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("clients hung after worker failure")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d succeeded against a broken replica", i)
		}
	}
	<-e.Done()
	if e.Err() == nil {
		t.Fatal("engine must report the worker failure")
	}
	if _, err := e.Submit(&Request{Input: testInput(bad, 0, bad.ImgH, bad.ImgW)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after failure = %v, want ErrClosed", err)
	}
}

// TestLoadgen drives the full path under concurrency: every request must
// complete, and the engine's counters must add up — with the cache off on a
// stream of distinct inputs, and with it on when half the stream repeats 8
// inputs.
func TestLoadgen(t *testing.T) {
	a := testArch()
	const requests = 200
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		seed       func(i int) int64
	}{
		{"unique", 0, func(i int) int64 { return int64(i) }},
		{"half-repeated", 1 << 20, func(i int) int64 {
			if i%2 == 0 {
				return int64(i / 2 % 8)
			}
			return int64(1000 + i)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := startTest(t, Config{
				Ranks: 2, Replicas: 2, MaxBatch: 8, MaxWait: 2 * time.Millisecond, QueueDepth: 64,
				CacheBytes: tc.cacheBytes,
			}, FromArch(a))
			res := RunLoadgen(e, LoadgenOptions{
				Requests:    requests,
				Concurrency: 16,
				NewRequest: func(i int) *Request {
					return &Request{ID: fmt.Sprint(i), Input: testInput(a, tc.seed(i), a.ImgH, a.ImgW)}
				},
			})
			if res.Errors != 0 {
				t.Fatalf("loadgen saw %d errors", res.Errors)
			}
			snap := res.Snapshot
			if tc.cacheBytes == 0 {
				if snap.Completed != requests {
					t.Fatalf("completed %d of %d", snap.Completed, requests)
				}
			} else {
				// Every request is a hit, the owner of a forward, or a
				// rider on an identical in-flight one.
				if got := snap.CacheHits + snap.CacheMisses + snap.CacheCoalesced; got != requests {
					t.Fatalf("hits %d + misses %d + coalesced %d = %d, want every one of %d requests accounted",
						snap.CacheHits, snap.CacheMisses, snap.CacheCoalesced, got, requests)
				}
				if snap.CacheHits == 0 {
					t.Fatalf("a stream repeating 8 inputs hit the cache 0 times: %+v", snap)
				}
			}
			if snap.MeanBatch < 1 || snap.Batches == 0 {
				t.Fatalf("implausible batching stats: %+v", snap)
			}
			if res.ThroughputRPS() <= 0 {
				t.Fatalf("throughput %v", res.ThroughputRPS())
			}
		})
	}
}

// TestMisSizedTracerRefused: a tracer with ranks*replicas rows would put the
// engine's front-end events on the last worker's row, and one with fewer
// drops whole ranks; both are refused, naming the two row counts, before any
// goroutine starts.
func TestMisSizedTracerRefused(t *testing.T) {
	leakcheck.Check(t)
	const ranks, replicas = 2, 2
	for _, rows := range []int{ranks * replicas, ranks*replicas - 2} {
		tr := obs.NewTracer(rows, 64)
		want := fmt.Sprintf("tracer has %d rows, a %d x %d host needs %d", rows, ranks, replicas, ranks*replicas+1)
		_, err := Start(Config{Ranks: ranks, Replicas: replicas, Trace: tr}, FromArch(testArch()))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Start with a %d-row tracer: err = %v, want %q", rows, err, want)
		}
		_, err = NewRouter(RouterConfig{Ranks: ranks, Replicas: replicas, Trace: tr})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewRouter with a %d-row tracer: err = %v, want %q", rows, err, want)
		}
	}
}
