package train

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func tinyArch(channels int) model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: channels, ImgH: 4, ImgW: 4, Patch: 2,
			Embed: 8, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 99,
		},
		Depth:      1,
		MetaTokens: 1,
	}
}

// fixedBatches precomputes deterministic batches so serial and distributed
// runs consume byte-identical data.
func fixedBatches(t *testing.T, channels, steps, batch int) BatchFn {
	t.Helper()
	g := data.NewHyperspectral(data.HyperspectralConfig{
		Images: steps * batch, Channels: channels, ImgH: 4, ImgW: 4,
		Endmembers: 2, Noise: 0.01, Seed: 42,
	})
	xs := make([]*tensor.Tensor, steps)
	for s := 0; s < steps; s++ {
		xs[s] = g.Batch(s*batch, batch)
	}
	return func(step int) (*tensor.Tensor, *tensor.Tensor) {
		return xs[step], xs[step]
	}
}

func TestSerialMAELossDecreases(t *testing.T) {
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 8, 2)
	hist := Serial(model.NewSerial(a), Options{
		Steps: 8, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 1, ClipNorm: 1,
	}, batch)
	if len(hist.Loss) != 8 {
		t.Fatalf("history length = %d", len(hist.Loss))
	}
	if hist.Last() >= hist.Loss[0] {
		t.Fatalf("MAE loss did not decrease: first %v last %v", hist.Loss[0], hist.Last())
	}
}

func TestDistributedMatchesSerialEquivalentTrajectory(t *testing.T) {
	// The core Fig. 11/12 integrity check, strengthened from "curves agree"
	// to exact equality: D-CHAG over 2 ranks follows the serial
	// reference-stage model step for step.
	const p = 2
	a := tinyArch(4)
	opts := Options{Steps: 5, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 7, ClipNorm: 1}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)

	serialHist := Serial(model.NewSerialDCHAGEquivalent(a, p), opts, batch)
	distHist, _, err := Distributed(a, p, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialHist.Loss) != len(distHist.Loss) {
		t.Fatalf("history lengths differ: %d vs %d", len(serialHist.Loss), len(distHist.Loss))
	}
	for s := range serialHist.Loss {
		if math.Abs(serialHist.Loss[s]-distHist.Loss[s]) > 1e-9 {
			t.Fatalf("step %d: serial %v distributed %v", s, serialHist.Loss[s], distHist.Loss[s])
		}
	}
}

func TestDistributedBackwardPhaseSilent(t *testing.T) {
	// The whole D-CHAG training backward pass (replicated ViT) moves zero
	// bytes — the paper's "no communication in the backward pass".
	const p = 2
	a := tinyArch(4)
	opts := Options{Steps: 2, Batch: 1, LR: 1e-2, MaskRatio: 0.5, Seed: 7}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)
	_, g, err := Distributed(a, p, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if bytes := g.Traffic().BytesInPhase("backward"); bytes != 0 {
		t.Fatalf("backward moved %d bytes, want 0\n%s", bytes, g.Traffic())
	}
	if calls := g.Traffic().CallsInPhase("forward"); calls != p*opts.Steps {
		t.Fatalf("forward collective calls = %d, want %d (one AllGather per rank per step)", calls, p*opts.Steps)
	}
}

func TestForecastTrainingAndRMSE(t *testing.T) {
	// Weather forecasting path: loss decreases and per-channel RMSE beats a
	// persistence-free untrained model.
	w := data.NewWeather(data.WeatherConfig{NativeH: 16, NativeW: 32, Steps: 32, DtHours: 6, Seed: 5})
	a := tinyArch(w.Channels())
	a.Channels = w.Channels()
	const steps, batchN = 6, 2
	xs := make([]*tensor.Tensor, steps)
	ys := make([]*tensor.Tensor, steps)
	for s := 0; s < steps; s++ {
		xs[s], ys[s] = w.PairBatch(s*batchN, batchN, 1, 4, 4)
	}
	batch := func(s int) (*tensor.Tensor, *tensor.Tensor) { return xs[s], ys[s] }

	m := model.NewSerial(a)
	// Pre-training RMSE.
	chans := []int{w.ChannelIndex("z500"), w.ChannelIndex("t850"), w.ChannelIndex("u10")}
	evalX := []*tensor.Tensor{xs[0]}
	evalY := []*tensor.Tensor{ys[0]}
	before := EvalForecastRMSE(m, evalX, evalY, chans)

	hist := Serial(m, Options{Steps: steps, Batch: batchN, LR: 5e-3, Seed: 2, ClipNorm: 1}, batch)
	if hist.Last() >= hist.Loss[0] {
		t.Fatalf("forecast loss did not decrease: %v -> %v", hist.Loss[0], hist.Last())
	}
	after := EvalForecastRMSE(m, evalX, evalY, chans)
	for _, ch := range chans {
		if !(after[ch] < before[ch]) {
			t.Fatalf("channel %d RMSE did not improve: %v -> %v", ch, before[ch], after[ch])
		}
		if math.IsNaN(after[ch]) {
			t.Fatalf("channel %d RMSE is NaN", ch)
		}
	}
}

func TestHistoryLast(t *testing.T) {
	if (History{}).Last() != 0 {
		t.Fatal("empty history Last should be 0")
	}
	h := History{Loss: []float64{3, 2, 1}}
	if h.Last() != 1 {
		t.Fatal("Last wrong")
	}
}

// shapeRuns are the step engine's entry points at the mesh shapes the
// tests sweep, all at TP extent 2: each trains the arch with the given
// options and returns world rank 0's losses.
var shapeRuns = []struct {
	name string
	run  func(a model.Arch, opts Options, batch BatchFn) (History, error)
}{
	{"serial", func(a model.Arch, opts Options, batch BatchFn) (History, error) {
		return SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, 2), opts, batch)
	}},
	{"distributed-2x1", func(a model.Arch, opts Options, batch BatchFn) (History, error) {
		h, _, err := Distributed(a, 2, false, opts, batch)
		return h, err
	}},
	{"hybrid-2x1", func(a model.Arch, opts Options, batch BatchFn) (History, error) {
		h, _, err := Hybrid(a, 2, 1, false, opts, batch)
		return h, err
	}},
	{"hybrid-2x2", func(a model.Arch, opts Options, batch BatchFn) (History, error) {
		h, _, err := Hybrid(a, 2, 2, false, opts, batch)
		return h, err
	}},
	{"generation-2x2", func(a model.Arch, opts Options, batch BatchFn) (History, error) {
		res := RunGeneration(a, opts, GenSpec{TP: 2, DP: 2, Start: 0, End: opts.Steps}, batch)
		return res.Hist, res.Err
	}},
}

func TestEveryShapeMatchesSerialEquivalent(t *testing.T) {
	// Distribution changes nothing: on every entry point and mesh shape the
	// run equals the serial-equivalent run trained with the same options.
	a := tinyArch(4)
	opts := Options{Steps: 4, Batch: 4, LR: 1e-2, ClipNorm: 1, MaskRatio: 0.5, Seed: 5}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)
	want := Serial(model.NewSerialDCHAGEquivalent(a, 2), opts, batch)
	for _, sh := range shapeRuns {
		got, err := sh.run(a, opts, batch)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if len(got.Loss) != len(want.Loss) {
			t.Fatalf("%s: %d losses, want %d", sh.name, len(got.Loss), len(want.Loss))
		}
		for s := range want.Loss {
			if math.Abs(want.Loss[s]-got.Loss[s]) > 1e-9 {
				t.Fatalf("%s step %d: serial %v got %v", sh.name, s, want.Loss[s], got.Loss[s])
			}
		}
	}
}

func TestDistributedIsHybridAtDP1Bitwise(t *testing.T) {
	// The one edge of the equivalence triangle not pinned elsewhere
	// (RunGeneration == Distributed bitwise, Hybrid ~ serial-equivalent):
	// Distributed(tp) is Hybrid(tp, 1) bit for bit, in its losses and in the
	// final checkpoint it commits.
	const tp = 2
	a := tinyArch(4)
	opts := Options{Steps: 5, Batch: 2, LR: 1e-2, MaskRatio: 0.5, Seed: 7, ClipNorm: 1, CheckpointEvery: 2, CheckpointKeep: 2}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)

	distOpts, hybOpts := opts, opts
	distOpts.CheckpointDir, hybOpts.CheckpointDir = t.TempDir(), t.TempDir()
	distHist, g, err := Distributed(a, tp, false, distOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	hybHist, mesh, err := Hybrid(a, tp, 1, false, hybOpts, batch)
	if err != nil {
		t.Fatal(err)
	}
	sameLoss(t, "distributed vs hybrid dp=1", hybHist.Loss, distHist.Loss)
	distCk, err := ckpt.OpenLatest(distOpts.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	hybCk, err := ckpt.OpenLatest(hybOpts.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if distCk.Manifest.Step != opts.Steps {
		t.Fatalf("final checkpoint at step %d, want %d", distCk.Manifest.Step, opts.Steps)
	}
	if !reflect.DeepEqual(distCk, hybCk) {
		t.Fatalf("final checkpoints differ: manifests %+v vs %+v", distCk.Manifest, hybCk.Manifest)
	}
	// Distributed's group is the mesh's TP group: same D-CHAG ledger.
	if got, want := g.Traffic().TotalBytes(), mesh.TPComm(0).Group().Traffic().TotalBytes(); got != want {
		t.Fatalf("TP ledger bytes: distributed %d, hybrid %d", got, want)
	}
}

func TestHybridMatchesSerialEquivalentTrajectory(t *testing.T) {
	// The paper's Sec. 3.4 composition, functionally: D-CHAG(TP=2) x DP=2
	// follows the serial full-batch reference-stage model exactly, with the
	// only cross-replica traffic being the gradient AllReduce.
	const tp, dp = 2, 2
	a := tinyArch(4)
	opts := Options{Steps: 4, Batch: 4, LR: 1e-2, ClipNorm: 1, MaskRatio: 0.5, Seed: 31}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)

	serialHist := Serial(model.NewSerialDCHAGEquivalent(a, tp), opts, batch)
	hybridHist, mesh, err := Hybrid(a, tp, dp, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(hybridHist.Loss) != len(serialHist.Loss) {
		t.Fatalf("history lengths differ: %d vs %d", len(hybridHist.Loss), len(serialHist.Loss))
	}
	for s := range serialHist.Loss {
		if math.Abs(serialHist.Loss[s]-hybridHist.Loss[s]) > 1e-9 {
			t.Fatalf("step %d: serial %v hybrid %v", s, serialHist.Loss[s], hybridHist.Loss[s])
		}
	}
	_ = mesh
}

func TestHybridBackwardPhaseSilentWithinReplicas(t *testing.T) {
	// Within a step's backward pass, D-CHAG itself stays silent; the only
	// synchronization is the labeled dp-sync gradient AllReduce.
	const tp, dp = 2, 2
	a := tinyArch(4)
	opts := Options{Steps: 2, Batch: 4, LR: 1e-2, Seed: 32}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)
	_, mesh, err := Hybrid(a, tp, dp, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	// Check every TP group's ledger: no backward-phase traffic anywhere.
	for r := 0; r < tp*dp; r++ {
		tr := mesh.TPComm(r).Group().Traffic()
		if b := tr.BytesInPhase("backward"); b != 0 {
			t.Fatalf("rank %d TP group backward moved %d bytes", r, b)
		}
		dtr := mesh.DPComm(r).Group().Traffic()
		if dtr.CallsInPhase("dp-sync") == 0 {
			t.Fatalf("rank %d DP group missing gradient sync traffic", r)
		}
	}
}

// TestDDPSyncIsOneCollective: the executed DP sync is the single bucketed
// all-reduce perfmodel and the trace schedule price. On a 2x2 mesh every
// rank's DP ledger shows two collectives a step — the gradient sync and the
// scalar loss — and the sync records the bytes one all-reduce per parameter
// recorded.
func TestDDPSyncIsOneCollective(t *testing.T) {
	const tp, dp = 2, 2
	a := tinyArch(4)
	opts := Options{Steps: 3, Batch: 4, LR: 1e-2, ClipNorm: 1, Seed: 33}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)
	_, mesh, err := Hybrid(a, tp, dp, true, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tp*dp; r++ {
		c := mesh.DPComm(r)
		tr := c.Group().Traffic()
		var perParam int64
		shard := model.NewDistributed(a, comm.NewGroup(tp).Comm(mesh.TPComm(r).Rank()), true)
		for _, p := range shard.Params() {
			perParam += int64(2*(dp-1)*p.Numel()/dp) * comm.BytesPerElem
		}
		if got := tr.CallsFor(c.Rank(), "dp-sync", comm.OpAllReduce); got != opts.Steps {
			t.Errorf("rank %d: %d dp-sync collectives in %d steps, want one a step", r, got, opts.Steps)
		}
		if got := tr.CallsFor(c.Rank(), "metrics", comm.OpAllReduce); got != opts.Steps {
			t.Errorf("rank %d: %d loss reductions in %d steps, want one a step", r, got, opts.Steps)
		}
		if got, want := tr.BytesFor(c.Rank(), "dp-sync", comm.OpAllReduce), int64(opts.Steps)*perParam; got != want || want == 0 {
			t.Errorf("rank %d: dp-sync recorded %d bytes, one all-reduce per parameter records %d", r, got, want)
		}
	}
}

func TestEntryPointValidation(t *testing.T) {
	// One shared validation: a bad shape or option is an error — never a
	// panic, never a silent fallback — on every entry point.
	a := tinyArch(4)
	batch := fixedBatches(t, 4, 1, 2)
	ok := Options{Steps: 1, Batch: 2}
	noDir := ok
	noDir.CheckpointEvery = 1
	hybrid := func(tp, dp int, o Options) error {
		_, _, err := Hybrid(a, tp, dp, false, o, batch)
		return err
	}
	distributed := func(tp, _ int, o Options) error {
		_, _, err := Distributed(a, tp, false, o, batch)
		return err
	}
	generation := func(tp, dp int, o Options) error {
		return RunGeneration(a, o, GenSpec{TP: tp, DP: dp, Start: 0, End: o.Steps}, batch).Err
	}
	for _, tc := range []struct {
		name   string
		run    func(tp, dp int, o Options) error
		tp, dp int
		opts   Options
	}{
		{"hybrid tp=0", hybrid, 0, 2, ok},
		{"hybrid dp=0", hybrid, 2, 0, ok},
		{"hybrid batch not divisible by dp", hybrid, 2, 3, ok},
		{"hybrid checkpoint options", hybrid, 2, 1, noDir},
		{"distributed p=0", distributed, 0, 1, ok},
		{"distributed p=-1", distributed, -1, 1, ok},
		{"distributed checkpoint options", distributed, 2, 1, noDir},
		{"generation tp=0", generation, 0, 1, ok},
		{"generation dp=-1", generation, 2, -1, ok},
		{"generation batch not divisible by dp", generation, 2, 3, ok},
		{"generation checkpoint options", generation, 2, 1, noDir},
	} {
		if err := tc.run(tc.tp, tc.dp, tc.opts); err == nil {
			t.Errorf("%s: want a validation error", tc.name)
		}
	}
}

func TestHybridFrontierPlacementTraffic(t *testing.T) {
	// The paper's placement claim end to end: on a 16-GCD world (2 Frontier
	// nodes) the D-CHAG/TP collectives stay inside a node, and the only
	// inter-node traffic is the DP axis — the per-step gradient AllReduce
	// (plus the loss-metric scalar), never forward or backward activations.
	const tp, dp = 2, 8
	a := tinyArch(4)
	opts := Options{Steps: 2, Batch: 8, LR: 1e-2, Seed: 61}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)
	_, mesh, err := Hybrid(a, tp, dp, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Topo != dist.Frontier(2) {
		t.Fatalf("topology = %+v, want Frontier(2)", mesh.Topo)
	}
	if b := mesh.InterNodeBytes(dist.AxisTP); b != 0 {
		t.Fatalf("TP moved %d inter-node bytes, want 0", b)
	}
	if b := mesh.AxisBytes(dist.AxisTP); b == 0 {
		t.Fatal("TP moved no bytes at all; test is vacuous")
	}
	if b := mesh.InterNodeBytes(dist.AxisDP); b == 0 {
		t.Fatal("DP gradient sync moved no inter-node bytes")
	}
	for gid := 0; gid < mesh.GroupCount(dist.AxisDP); gid++ {
		tr := mesh.GroupTraffic(dist.AxisDP, gid)
		for _, phase := range []string{"forward", "backward"} {
			if b := tr.BytesInPhase(phase); b != 0 {
				t.Fatalf("DP group %d moved %d bytes in %s phase", gid, b, phase)
			}
		}
		if tr.CallsInPhase("dp-sync") == 0 {
			t.Fatalf("DP group %d recorded no gradient sync", gid)
		}
	}
}

func TestHybridSimulatedCommSeconds(t *testing.T) {
	// Pricing a real hybrid run's recorded traffic on the Frontier machine
	// model: the node-local TP axis must be charged at the Infinity Fabric
	// rate, the node-striding DP axis at the Slingshot share, and the unused
	// FSDP axis must be free.
	const tp, dp = 2, 8
	machine := hw.Frontier()
	a := tinyArch(4)
	opts := Options{Steps: 2, Batch: 8, LR: 1e-2, Seed: 67}
	batch := fixedBatches(t, 4, opts.Steps, opts.Batch)
	_, mesh, err := Hybrid(a, tp, dp, false, opts, batch)
	if err != nil {
		t.Fatal(err)
	}
	var perAxis [dist.NumAxes]float64
	for _, a := range dist.Axes {
		perAxis[a] = mesh.AxisWireSeconds(machine, a)
	}
	if perAxis[dist.AxisTP] <= 0 || perAxis[dist.AxisDP] <= 0 {
		t.Fatalf("active axes must price to positive time: %v", perAxis)
	}
	if perAxis[dist.AxisFSDP] != 0 {
		t.Fatalf("FSDP=1 axis must price to zero, got %v", perAxis[dist.AxisFSDP])
	}
	// Exact link selection: the busiest TP group's per-rank bytes at the
	// intra-node rate, the busiest DP group's at the inter-node share.
	worstPerRank := func(a dist.Axis, extent int) int64 {
		var worst int64
		for gid := 0; gid < mesh.GroupCount(a); gid++ {
			if b := mesh.GroupTraffic(a, gid).TotalBytes() / int64(extent); b > worst {
				worst = b
			}
		}
		return worst
	}
	if want := float64(worstPerRank(dist.AxisTP, tp)) / machine.IntraBW; perAxis[dist.AxisTP] != want {
		t.Fatalf("TP axis priced %v, want intra-node %v", perAxis[dist.AxisTP], want)
	}
	if want := float64(worstPerRank(dist.AxisDP, dp)) / machine.InterBWPerGPU; perAxis[dist.AxisDP] != want {
		t.Fatalf("DP axis priced %v, want inter-node %v", perAxis[dist.AxisDP], want)
	}
}

func TestHybridRankFailureSurfacesError(t *testing.T) {
	// A batch too short for the high replica's shard makes only the DP=1
	// ranks panic mid-step while DP=0's ranks run ahead into their
	// collectives; the mesh abort must release them and Hybrid must return
	// the root-cause error instead of deadlocking.
	const tp, dp = 2, 2
	a := tinyArch(4)
	opts := Options{Steps: 2, Batch: 4, LR: 1e-2, Seed: 62}
	good := fixedBatches(t, 4, opts.Steps, opts.Batch)
	short := func(s int) (*tensor.Tensor, *tensor.Tensor) {
		x, y := good(s)
		return tensor.SliceAxis(x, 0, 0, 2), tensor.SliceAxis(y, 0, 0, 2)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := Hybrid(a, tp, dp, false, opts, short)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "SliceAxis") {
			t.Fatalf("err = %v, want the slicing panic as root cause", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Hybrid deadlocked after partial rank failure")
	}
}

func TestDCHAGComposesWithFSDP(t *testing.T) {
	// The remaining Sec. 3.4 axis: D-CHAG(TP=2) x FSDP=2. Every FSDP replica
	// processes a batch shard with sharded parameter state; the trajectory
	// must match the serial full-batch reference exactly (FSDP == DDP ==
	// serial is proven at the parallel-package level; this test proves the
	// composition with the D-CHAG channel stage).
	const tp, fsdp = 2, 2
	a := tinyArch(4)
	const steps, batchN = 3, 4
	batch := fixedBatches(t, 4, steps, batchN)

	opts := Options{Steps: steps, Batch: batchN, LR: 1e-2, Seed: 41}
	serialHist := Serial(model.NewSerialDCHAGEquivalent(a, tp), opts, batch)

	spec := dist.MeshSpec{TP: tp, FSDP: fsdp, DP: 1}
	losses := make([]float64, steps)
	_, err := dist.RunMesh(spec, dist.Topology{Nodes: 1, GPUsPerNode: spec.World()}, func(rank int, m *dist.Mesh) error {
		tpc := m.TPComm(rank)
		fc := m.FSDPComm(rank)
		coord := m.Spec.CoordOf(rank)
		mdl := model.NewDistributed(a, tpc, false)
		stage := mdl.Stage.(*model.DCHAGStage)
		lo, hi := stage.ChannelBounds()
		f := parallel.NewFSDP(fc, mdl.Params())
		opt := optim.NewAdamW(f.ShardParams(), opts.LR, 0)
		mse := nn.NewMSELoss()
		shard := batchN / fsdp
		for s := 0; s < steps; s++ {
			f.GatherParams()
			x, y := batch(s)
			xF := tensor.SliceAxis(x, 0, coord.FSDP*shard, (coord.FSDP+1)*shard)
			yF := tensor.SliceAxis(y, 0, coord.FSDP*shard, (coord.FSDP+1)*shard)
			pred := mdl.Forward(tensor.SliceAxis(xF, 1, lo, hi), nil)
			loss := mse.Forward(pred, model.Patchify(yF, a.Patch))
			f.ZeroGrads()
			mdl.Backward(mse.Backward())
			f.ReduceScatterGrads()
			opt.Step()
			mean := fc.AllReduceScalarSum(loss) / float64(fsdp)
			if rank == 0 {
				losses[s] = mean
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if math.Abs(serialHist.Loss[s]-losses[s]) > 1e-9 {
			t.Fatalf("step %d: serial %v dchag+fsdp %v", s, serialHist.Loss[s], losses[s])
		}
	}
}
