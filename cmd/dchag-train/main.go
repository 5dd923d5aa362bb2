// Command dchag-train trains a reduced-scale foundation model on one of the
// two synthetic applications — MAE mask prediction on hyperspectral plant
// images, or ERA5-like weather forecasting — with a configurable channel
// stage: the serial baseline or D-CHAG over simulated ranks.
//
// Examples:
//
//	dchag-train -task mae -ranks 2 -kind L -steps 50
//	dchag-train -task weather -ranks 4 -kind C -tree 2
//	dchag-train -task mae -ranks 1            # serial baseline
//
// Checkpointing (-save / -load / -resume) is shard-aware and reshardable
// (internal/ckpt): each flag names a checkpoint *directory* holding one
// shard file per rank plus a manifest. A checkpoint saved at p ranks can be
// loaded at any rank count dividing its logical partition count — including
// 1, where the serial Reference equivalent of the partitioned model is
// built — with bit-identical logical weights:
//
//	dchag-train -task mae -ranks 4 -steps 20 -save ckpt/
//	dchag-train -task mae -ranks 2 -steps 20 -load ckpt/   # reshard 4 -> 2
//	dchag-train -task mae -ranks 1 -steps 20 -load ckpt/   # reshard -> serial
//	dchag-train -task mae -ranks 4 -steps 40 -resume ckpt/ # exact resume
//
// -load warm-starts the weights only; -resume additionally restores the
// optimizer moments and step count and fast-forwards the mask RNG stream,
// so the resumed run is step-for-step identical to an uninterrupted one. -partitions fixes the logical D-CHAG partition count
// independently of -ranks (it defaults to -ranks; on -load/-resume it
// always comes from the checkpoint manifest).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/debugserver"
	"repro/internal/elastic"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dchag-train: ")
	var (
		task     = flag.String("task", "mae", "training task: mae | weather")
		ranks    = flag.Int("ranks", 2, "simulated D-CHAG (TP) ranks per replica (1 = serial baseline)")
		dp       = flag.Int("dp", 1, "data-parallel replicas (hybrid D-CHAG x DP when > 1)")
		kindFlag = flag.String("kind", "L", "partial-layer kind: L (linear) | C (cross-attention) | P (perceiver)")
		tree     = flag.Int("tree", 0, "partial-module tree configuration (0, 2, 4, ...)")
		steps    = flag.Int("steps", 40, "optimizer steps")
		batch    = flag.Int("batch", 4, "global batch size")
		lr       = flag.Float64("lr", 3e-3, "AdamW learning rate")
		channels = flag.Int("channels", 32, "channel count (mae task only; weather uses 80)")
		embed    = flag.Int("embed", 16, "embedding dimension")
		depth    = flag.Int("depth", 2, "transformer blocks")
		tpvit    = flag.Bool("tpvit", false, "also tensor-parallelize the ViT blocks")
		seed     = flag.Int64("seed", 2024, "master seed")
		save     = flag.String("save", "", "write checkpoints (weights + optimizer state) to this directory")
		saveEach = flag.Int("save-every", 0, "also checkpoint every N optimizer steps (0: final step only)")
		keep     = flag.Int("keep", 1, "retain the newest K checkpoints as step subdirectories (1: single-slot overwrite)")
		load     = flag.String("load", "", "warm-start weights from this checkpoint directory (resharding as needed)")
		resume   = flag.String("resume", "", "resume exactly from this checkpoint directory (weights, optimizer moments, step)")
		parts    = flag.Int("partitions", 0, "logical D-CHAG partition count (0: one per rank; -load/-resume read it from the manifest)")
		elast    = flag.Bool("elastic", false, "run under the elastic fault-tolerant supervisor (requires -ranks > 1 and -save for recovery across rank loss)")
		minRanks = flag.Int("min-ranks", 1, "smallest world size the elastic supervisor will re-rendezvous at")
		failRank = flag.Int("fail-rank", -1, "inject a deterministic rank failure: kill this rank (elastic mode only)")
		failStep = flag.Int("fail-step", -1, "inject the failure at the top of this global step (elastic mode only)")
		smoke    = flag.Bool("elastic-smoke", false, "run the hermetic elastic smoke check (train, kill a rank, shrink, verify the trajectory) and exit")

		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof profiling on this address (off by default; exposes runtime internals — never bind on an untrusted network)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	if *debugAddr != "" {
		bound, err := debugserver.Start(*debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		fmt.Printf("pprof debug server on http://%s/debug/pprof/ (do not expose on untrusted networks)\n", bound)
	}

	if *smoke {
		runElasticSmoke()
		return
	}

	var kind core.LayerKind
	switch *kindFlag {
	case "L":
		kind = core.KindLinear
	case "C":
		kind = core.KindCross
	case "P":
		kind = core.KindPerceiver
	default:
		log.Fatalf("unknown -kind %q (want L, C or P)", *kindFlag)
	}

	var arch model.Arch
	var batchFn train.BatchFn
	opts := train.Options{Steps: *steps, Batch: *batch, LR: *lr, ClipNorm: 1, Seed: *seed}

	switch *task {
	case "mae":
		arch = model.Arch{
			Config: core.Config{
				Channels: *channels, ImgH: 8, ImgW: 8, Patch: 2,
				Embed: *embed, Heads: 2, Tree: *tree, Kind: kind, Seed: *seed,
			},
			Depth: *depth, MetaTokens: 1,
		}
		opts.MaskRatio = 0.5
		gen := data.NewHyperspectral(data.HyperspectralConfig{
			Images: 494, Channels: *channels, ImgH: 8, ImgW: 8,
			Endmembers: 4, Noise: 0.01, Seed: *seed,
		})
		batchFn = func(s int) (*tensor.Tensor, *tensor.Tensor) {
			x := gen.Batch(s*(*batch), *batch)
			return x, x
		}
	case "weather":
		w := data.NewWeather(data.WeatherConfig{NativeH: 32, NativeW: 64, Steps: 1024, DtHours: 6, Seed: *seed})
		arch = model.Arch{
			Config: core.Config{
				Channels: w.Channels(), ImgH: 8, ImgW: 16, Patch: 2,
				Embed: *embed, Heads: 2, Tree: *tree, Kind: kind, Seed: *seed,
			},
			Depth: *depth, MetaTokens: 1,
		}
		batchFn = func(s int) (*tensor.Tensor, *tensor.Tensor) {
			return w.PairBatch(s*(*batch), *batch, 1, 8, 16)
		}
	default:
		log.Fatalf("unknown -task %q (want mae or weather)", *task)
	}

	// Wire the checkpoint options. -resume implies checkpoints continue to
	// accumulate in the resume directory.
	if *resume != "" {
		if *load != "" {
			log.Fatal("-resume and -load are mutually exclusive")
		}
		if *save != "" && *save != *resume {
			log.Fatal("-resume writes checkpoints to the resume directory; drop -save or point it at the same directory")
		}
		opts.CheckpointDir = *resume
		opts.Resume = true
	} else if *save != "" {
		opts.CheckpointDir = *save
	}
	opts.CheckpointEvery = *saveEach
	opts.CheckpointKeep = *keep

	opts.InitFrom = *load

	// The logical partition count: the manifest's when restoring (it is a
	// model property), -partitions or -ranks otherwise.
	partitions := *parts
	stageKind := "dchag"
	if dir := opts.CheckpointDir; opts.Resume || *load != "" {
		if *load != "" {
			dir = *load
		}
		// Resolve keep-last-k retention roots to their newest complete
		// checkpoint; single-slot directories resolve to themselves.
		dir, err := ckpt.LatestDir(dir)
		if err != nil {
			log.Fatal(err)
		}
		man, err := ckpt.ReadManifest(dir)
		if err != nil {
			log.Fatal(err)
		}
		partitions = man.Partitions
		if k, ok := man.Meta[ckpt.MetaStage]; ok {
			stageKind = k
		}
		fmt.Printf("checkpoint %s: step %d, saved at %d ranks, %d logical partitions\n",
			dir, man.Step, man.World, partitions)
	}
	if partitions == 0 {
		partitions = *ranks
	}
	if *ranks > 1 && partitions%*ranks != 0 {
		log.Fatalf("partition count %d not divisible by %d ranks", partitions, *ranks)
	}
	arch.Partitions = partitions

	fmt.Printf("task=%s ranks=%d kind=%s tree=%d partitions=%d params(serial)=%d\n",
		*task, *ranks, kind, *tree, partitions, arch.ParamCount())

	if *elast {
		if *ranks <= 1 {
			log.Fatal("-elastic requires -ranks > 1")
		}
		eo := elastic.Options{TP: *ranks, DP: *dp, MinWorld: *minRanks, TPViT: *tpvit}
		if *failRank >= 0 || *failStep >= 0 {
			if *failRank < 0 || *failStep < 0 {
				log.Fatal("-fail-rank and -fail-step must be set together")
			}
			eo.Plan = faultinject.NewPlan().KillAtStep(*failRank, *failStep)
		}
		rep, err := elastic.Run(arch, opts, eo, batchFn)
		for _, g := range rep.Generations {
			line := fmt.Sprintf("generation %d: %dx%d from %s at step %d", g.Gen, g.TP, g.DP, g.Source, g.Start)
			if len(g.Failed) > 0 {
				line += fmt.Sprintf(" (failed ranks %v)", g.Failed)
			}
			fmt.Println(line)
		}
		if err != nil {
			log.Fatal(err)
		}
		printHistory(train.History{Loss: rep.Loss})
		return
	}
	if *ranks <= 1 {
		// A fresh serial run without -partitions is the plain baseline
		// stage; anything partitioned (or restored from a partitioned
		// checkpoint) uses the serial equivalent of the partitioned model —
		// the same logical state tree as any distributed run.
		fresh := !opts.Resume && *load == ""
		var m *model.FoundationModel
		if stageKind == "serial" || (fresh && *parts <= 1) {
			m = model.NewSerial(arch)
		} else {
			m = model.NewSerialDCHAGEquivalent(arch, partitions)
		}
		hist, err := train.SerialCheckpointed(m, opts, batchFn)
		if err != nil {
			log.Fatal(err)
		}
		printHistory(hist)
		if opts.CheckpointDir != "" && len(hist.Loss) > 0 {
			fmt.Printf("checkpoint written to %s\n", opts.CheckpointDir)
		}
		return
	}
	if stageKind == "serial" {
		log.Fatal("checkpoint was saved from the plain serial stage; load it with -ranks 1")
	}
	if *dp > 1 {
		hist, mesh, err := train.Hybrid(arch, *ranks, *dp, *tpvit, opts, batchFn)
		if err != nil {
			log.Fatal(err)
		}
		printHistory(hist)
		var backward int64
		for r := 0; r < *ranks**dp; r++ {
			backward += mesh.TPComm(r).Group().Traffic().BytesInPhase("backward")
		}
		fmt.Printf("hybrid D-CHAG(TP=%d) x DP=%d on %d simulated GPUs; backward-phase bytes: %d\n",
			*ranks, *dp, *ranks**dp, backward)
		return
	}
	hist, group, err := train.Distributed(arch, *ranks, *tpvit, opts, batchFn)
	if err != nil {
		log.Fatal(err)
	}
	printHistory(hist)
	if opts.CheckpointDir != "" && len(hist.Loss) > 0 {
		fmt.Printf("checkpoint written to %s (%d shards)\n", opts.CheckpointDir, *ranks)
	}
	fmt.Printf("communication: forward %d B, backward %d B (D-CHAG backward is silent)\n",
		group.Traffic().BytesInPhase("forward"), group.Traffic().BytesInPhase("backward"))
	if group.Traffic().BytesInPhase("backward") != 0 {
		fmt.Fprintln(os.Stderr, "warning: unexpected backward communication")
		os.Exit(1)
	}
}

func printHistory(h train.History) {
	for s, l := range h.Loss {
		if s%5 == 0 || s == len(h.Loss)-1 {
			fmt.Printf("step %4d  loss %.6f\n", h.Start+s, l)
		}
	}
}

// runElasticSmoke is the hermetic CI check for elastic training: train a
// tiny model at 8 ranks with a deterministic fault plan that kills rank 5
// at step 7, let the supervisor shrink to the survivors from the last
// committed checkpoint, then independently cold-restore that same commit at
// the recovery shape and verify the supervisor's continued trajectory is
// bitwise identical. Everything runs in a temp directory; exit status is
// the verdict.
func runElasticSmoke() {
	const (
		world    = 8
		steps    = 12
		batchSz  = 4
		killRank = 5
		killStep = 7
	)
	dir, err := os.MkdirTemp("", "elastic-smoke-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	arch := model.Arch{
		Config: core.Config{
			Channels: world, ImgH: 4, ImgW: 4, Patch: 2,
			Embed: 8, Heads: 2, Kind: core.KindLinear, Seed: 99,
		},
		Depth: 1, MetaTokens: 1,
	}
	opts := train.Options{
		Steps: steps, Batch: batchSz, LR: 1e-2, MaskRatio: 0.5, Seed: 5, ClipNorm: 1,
		CheckpointDir: dir, CheckpointEvery: 3, CheckpointKeep: 16,
	}
	gen := data.NewHyperspectral(data.HyperspectralConfig{
		Images: steps * batchSz, Channels: world, ImgH: 4, ImgW: 4,
		Endmembers: 2, Noise: 0.01, Seed: 42,
	})
	xs := make([]*tensor.Tensor, steps)
	for s := 0; s < steps; s++ {
		xs[s] = gen.Batch(s*batchSz, batchSz)
	}
	batchFn := func(s int) (*tensor.Tensor, *tensor.Tensor) { return xs[s], xs[s] }

	plan := faultinject.NewPlan().KillAtStep(killRank, killStep)
	rep, err := elastic.Run(arch, opts, elastic.Options{TP: world, DP: 1, MinWorld: 1, Plan: plan}, batchFn)
	if err != nil {
		log.Fatalf("elastic run: %v", err)
	}
	var rec *elastic.Generation
	for i := range rep.Generations {
		g := &rep.Generations[i]
		fmt.Printf("generation %d: %dx%d from %s at step %d (failed ranks %v)\n",
			g.Gen, g.TP, g.DP, g.Source, g.Start, g.Failed)
		if g.Source == elastic.SourceCheckpoint {
			rec = g
		}
	}
	if rec == nil {
		log.Fatalf("no checkpoint-sourced recovery generation in %+v", rep.Generations)
	}
	if rec.TP*rec.DP >= world {
		log.Fatalf("recovery world %d did not shrink below %d", rec.TP*rec.DP, world)
	}

	// Independent cold restore of the same commit at the recovery shape;
	// its trajectory over the same step range is the oracle.
	ck, err := ckpt.Open(ckpt.StepDir(dir, rec.Start))
	if err != nil {
		log.Fatalf("open recovery commit: %v", err)
	}
	coldDir, err := os.MkdirTemp("", "elastic-smoke-cold-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(coldDir)
	coldOpts := opts
	coldOpts.CheckpointDir = coldDir
	arch.Partitions = world
	res := train.RunGeneration(arch, coldOpts, train.GenSpec{
		TP: rec.TP, DP: rec.DP, Start: rec.Start, End: steps, From: ck,
	}, batchFn)
	if res.Err != nil {
		log.Fatalf("cold restore run: %v", res.Err)
	}
	for i, l := range res.Hist.Loss {
		s := rec.Start + i
		if rep.Loss[s] != l {
			log.Fatalf("step %d: elastic loss %v != cold-restore loss %v", s, rep.Loss[s], l)
		}
	}
	fmt.Printf("elastic-smoke: OK — killed rank %d at step %d, recovered at %dx%d from the step-%d commit, %d continued steps bitwise identical to cold restore\n",
		killRank, killStep, rec.TP, rec.DP, rec.Start, len(res.Hist.Loss))
}
