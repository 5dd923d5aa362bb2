package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/leakcheck"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
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

func startTest(t testing.TB, cfg Config, src Source) *Engine {
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

// TestTopologiesAnswerIdenticalBits: one Source served at Ranks 1 and at
// every q > 1 dividing the test arch's partitions, in F64 and F32, answers
// every request with the bits of direct inference — a lone request (a
// partial batch, B < q: no rank splits it) and a burst behind a busy replica
// (full batches, which the ranks share out after the stage's AllGather)
// alike. The burst forms more than two full batches, so the leader reuses
// both of its answer buffers while its responder answers the batch before:
// a buffer the next forward overwrote too early shows up here as wrong bits.
func TestTopologiesAnswerIdenticalBits(t *testing.T) {
	a := testArch()
	const maxBatch, burst = 4, 32
	inputs := make([]*tensor.Tensor, burst+1)
	for i := range inputs {
		inputs[i] = testInput(a, int64(60+i), a.ImgH, a.ImgW)
	}
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		direct := model.NewSerialDCHAGEquivalent(a, a.Partitions)
		direct.SetEval(true)
		if dt != tensor.F64 {
			direct.SetInferDType(dt)
		}
		want := make([]*tensor.Tensor, burst+1)
		for i, x := range inputs {
			want[i] = direct.PredictImage(x.Reshape(1, a.Channels, a.ImgH, a.ImgW)).Reshape(a.Channels, a.ImgH, a.ImgW)
		}
		for _, q := range []int{1, 2, 4} {
			e := startTest(t, Config{Ranks: q, Replicas: 1, MaxBatch: maxBatch, MaxWait: 200 * time.Millisecond, QueueDepth: 64, DType: dt}, FromArch(a))
			out := make([]*tensor.Tensor, burst+1)
			resp, err := e.Do(context.Background(), &Request{Input: inputs[burst]})
			if err != nil || resp.BatchSize != 1 {
				t.Fatalf("%v q=%d: lone request: batch %d, err %v", dt, q, resp.BatchSize, err)
			}
			out[burst] = resp.Output
			chans := make([]<-chan Response, burst)
			for i := range chans {
				if chans[i], err = e.Submit(&Request{ID: fmt.Sprint(i), Input: inputs[i]}); err != nil {
					t.Fatal(err)
				}
			}
			inFull := 0
			for i, ch := range chans {
				r := <-ch
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				out[i] = r.Output
				if r.BatchSize == maxBatch {
					inFull++
				}
			}
			if inFull/maxBatch < 3 {
				t.Fatalf("%v q=%d: a burst of %d behind a busy replica formed %d batches of %d, want at least 3", dt, q, burst, inFull/maxBatch, maxBatch)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if d := tensor.MaxAbsDiff(out[i], want[i]); d != 0 {
					t.Fatalf("%v request %d: q=%d answers %g away from direct inference", dt, i, q, d)
				}
			}
		}
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

// trainCheckpoint trains the test model for two steps distributed over
// `ranks` goroutine ranks and writes a shard-per-rank checkpoint.
func trainCheckpoint(t *testing.T, dir string, ranks int) model.Arch {
	t.Helper()
	return trainSteps(t, dir, ranks, 2)
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

// TestServingRefusesSerialStageCheckpoint: a checkpoint whose manifest
// records a stage other than D-CHAG ("serial") is refused when it is opened,
// by a message naming the stage.
func TestServingRefusesSerialStageCheckpoint(t *testing.T) {
	root := t.TempDir()
	trainCheckpoint(t, root, 2)
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
	if _, err := FromCheckpoint(root); err == nil || !strings.Contains(err.Error(), `"serial" stage`) {
		t.Fatalf("want the serial stage refused by name, got %v", err)
	}
}

// TestServingRefusesStrayTensor: a checkpoint that holds a tensor the model
// has no parameter for (here in a shard of its own) is refused by name when
// it is opened, not served with the tensor dropped.
func TestServingRefusesStrayTensor(t *testing.T) {
	root := t.TempDir()
	trainCheckpoint(t, root, 2)
	dir, err := ckpt.LatestDir(root)
	if err != nil {
		t.Fatal(err)
	}
	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	const stray = "dchag.final.mix.weight"
	leaf := ckpt.Leaf{Name: stray, Logical: stray, Shape: []int{2}, Values: []float64{1, 2}}
	if err := ckpt.WriteShard(dir, man.World, ckpt.Tree{Format: ckpt.Format, OptAlgo: man.OptAlgo, OptStep: man.Step, Leaves: []ckpt.Leaf{leaf}}); err != nil {
		t.Fatal(err)
	}
	man.World++
	if err := ckpt.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if _, err := FromCheckpoint(root); err == nil || !strings.Contains(err.Error(), stray) {
		t.Fatalf("want %q refused by name, got %v", stray, err)
	}
}

// badArchs are architecture records no model can be built from: kind 2 (the
// record of every checkpoint saved with the retired third partial-layer
// kind), an unknown kind and a zero embedding width. want is what the
// refusal must name.
var badArchs = []struct {
	name, want string
	set        func(a *model.Arch)
}{
	{"kind 2", "LayerKind(2)", func(a *model.Arch) { a.Kind = 2 }},
	{"kind 9", "LayerKind(9)", func(a *model.Arch) { a.Kind = 9 }},
	{"embed 0", "must be positive", func(a *model.Arch) { a.Embed = 0 }},
}

// setArchRecord rewrites the architecture record of the checkpoint
// committed in dir through set.
func setArchRecord(t *testing.T, dir string, set func(a *model.Arch)) {
	t.Helper()
	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var a model.Arch
	if err := json.Unmarshal([]byte(man.Meta[ckpt.MetaArch]), &a); err != nil {
		t.Fatal(err)
	}
	set(&a)
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	man.Meta[ckpt.MetaArch] = string(blob)
	if err := ckpt.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

// TestServingRefusesBadArchRecord: a checkpoint whose architecture record no
// model can be built from is refused when it is opened, by an error naming
// the broken rule — the record is untrusted input, so it must never reach a
// constructor that panics on it.
func TestServingRefusesBadArchRecord(t *testing.T) {
	root := t.TempDir()
	trainCheckpoint(t, root, 2)
	dir, err := ckpt.LatestDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range badArchs {
		t.Run(bad.name, func(t *testing.T) {
			setArchRecord(t, dir, func(a *model.Arch) { *a = testArch(); bad.set(a) })
			if _, err := FromCheckpoint(root); err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Fatalf("want the record refused naming %q, got %v", bad.want, err)
			}
		})
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

// TestAnswerStagePanicFailsClients: a source whose models patch the image
// finer than the architecture it advertises runs every forward to the end
// and then panics in the responder's Unpatchify. At Ranks 1 and 2, every
// client — owners and coalesced waiters alike — gets exactly one error,
// Close and Err carry the panic as the root cause, and nothing leaks.
func TestAnswerStagePanicFailsClients(t *testing.T) {
	for _, q := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks%d", q), func(t *testing.T) {
			leakcheck.Check(t)
			claimed := testArch()
			built := claimed
			built.Patch = 1
			e, err := Start(Config{Ranks: q, Replicas: 1, MaxBatch: 2, MaxWait: time.Millisecond, QueueDepth: 64, CacheBytes: 1 << 20},
				brokenSource{claimed: claimed, builds: FromArch(built)})
			if err != nil {
				t.Fatal(err)
			}
			var chans []<-chan Response
			for i := 0; i < 24; i++ {
				// Each input twice: the second joins the first's flight
				// when it is still in the air.
				ch, err := e.Submit(&Request{ID: fmt.Sprint(i), Input: testInput(claimed, int64(i/2), claimed.ImgH, claimed.ImgW)})
				if errors.Is(err, ErrClosed) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				chans = append(chans, ch)
			}
			for i, ch := range chans {
				select {
				case r := <-ch:
					if r.Err == nil {
						t.Fatalf("request %d answered by a replica whose answers cannot be unpatchified", i)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("request %d hung after the responder panicked", i)
				}
			}
			<-e.Done()
			for i, ch := range chans {
				select {
				case r := <-ch:
					t.Fatalf("request %d got a second response: %+v", i, r)
				default:
				}
			}
			for name, err := range map[string]error{"Err": e.Err(), "Close": e.Close()} {
				if err == nil || !strings.Contains(err.Error(), "Unpatchify") {
					t.Errorf("%s = %v, want the responder's Unpatchify panic", name, err)
				}
			}
		})
	}
}

// TestPartlyAnsweredBatchFailsTheRest: when the answer stage dies part-way
// through a batch, failing the batch answers only the requests complete had
// not reached — the one already answered gets no second response — and
// releases the batch once.
func TestPartlyAnsweredBatchFailsTheRest(t *testing.T) {
	a := testArch()
	e := &Engine{arch: a, metrics: NewMetrics()}
	inst := &instance{}
	inst.wg.Add(1)
	bj := &batchJob{e: e, inst: inst}
	for i := 0; i < 3; i++ {
		bj.jobs = append(bj.jobs, &job{req: &Request{ID: fmt.Sprint(i)}, done: make(chan Response, 1)})
	}
	close(bj.jobs[1].done) // answering request 1 panics
	tokens, pp := (a.ImgH/a.Patch)*(a.ImgW/a.Patch), a.Channels*a.Patch*a.Patch
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("complete answered a closed response channel")
			}
		}()
		e.complete(bj, tensor.New(len(bj.jobs), tokens, pp))
	}()
	if bj.answered != 1 {
		t.Fatalf("complete counted %d answered requests, want 1", bj.answered)
	}
	bj.jobs[1].done = make(chan Response, 1)
	bj.fail()
	inst.wg.Wait()
	for i, j := range bj.jobs {
		if r := <-j.done; (r.Err == nil) != (i == 0) {
			t.Fatalf("request %d: err %v", i, r.Err)
		}
		select {
		case r := <-j.done:
			t.Fatalf("request %d got a second response: %+v", i, r)
		default:
		}
	}
}

// TestCloseUnderLoadAnswersEveryRequestOnce closes engines while a
// submitter keeps them saturated: every admitted request — answered,
// failed in the queue, in a dispatched batch or on its way to the
// responder, or coalesced onto one of those — gets exactly one response,
// and the leaders' responders leave no goroutine behind.
func TestCloseUnderLoadAnswersEveryRequestOnce(t *testing.T) {
	a := testArch()
	for _, topo := range []struct{ ranks, replicas int }{{1, 1}, {2, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", topo.ranks, topo.replicas), func(t *testing.T) {
			leakcheck.Check(t)
			e, err := Start(Config{Ranks: topo.ranks, Replicas: topo.replicas, MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 64, CacheBytes: 1 << 20}, FromArch(a))
			if err != nil {
				t.Fatal(err)
			}
			var chans []<-chan Response
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					ch, err := e.Submit(&Request{ID: fmt.Sprint(i), Input: testInput(a, int64(i/2), a.ImgH, a.ImgW)})
					switch {
					case err == nil:
						chans = append(chans, ch)
					case errors.Is(err, ErrQueueFull):
						time.Sleep(10 * time.Microsecond)
					case errors.Is(err, ErrClosed):
						return
					default:
						t.Error(err)
						return
					}
				}
			}()
			for e.Metrics().Snapshot().Completed < 32 {
				time.Sleep(time.Millisecond)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("close under load returned %v", err)
			}
			<-done
			answered := 0
			for i, ch := range chans {
				select {
				case r := <-ch:
					if r.Err == nil {
						answered++
					} else if !errors.Is(r.Err, ErrClosed) {
						t.Fatalf("request %d: %v, want an answer or ErrClosed", i, r.Err)
					}
				default:
					t.Fatalf("request %d of %d has no response after Close", i, len(chans))
				}
				select {
				case r := <-ch:
					t.Fatalf("request %d got a second response: %+v", i, r)
				default:
				}
			}
			if answered == 0 {
				t.Fatalf("none of %d requests answered, though %d completed before Close", len(chans), 32)
			}
		})
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
		})
	}
}

// TestNegativeConfigRefused: only a zero Config field takes its default; a
// negative one is refused by Start before any goroutine starts, never
// rewritten to the default.
func TestNegativeConfigRefused(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"Ranks", Config{Ranks: -2}},
		{"Replicas", Config{Replicas: -3}},
		{"MaxBatch", Config{MaxBatch: -1}},
		{"QueueDepth", Config{QueueDepth: -7}},
		{"MaxWait", Config{MaxWait: -time.Second}},
		{"CacheBytes", Config{CacheBytes: -1}},
	} {
		e, err := Start(tc.cfg, FromArch(testArch()))
		if err == nil {
			t.Errorf("Start with negative %s (%+v) succeeded, want an error", tc.name, tc.cfg)
			if err := e.Close(); err != nil {
				t.Error(err)
			}
		}
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
	}
}
