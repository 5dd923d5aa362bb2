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
// 1, where one rank owns every partition of the same model — with
// bit-identical logical weights:
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
//
// -trace writes the run the other flags describe (serial, D-CHAG, hybrid or
// -elastic) as Chrome trace-event JSON for Perfetto: each rank's step phases
// and collectives with their wire bytes, plus the elastic supervisor's row.
// It is written also when training fails:
//
//	dchag-train -task mae -ranks 2 -dp 2 -steps 10 -trace train.json
//	dchag-train -ranks 4 -elastic -fail-rank 1 -fail-step 5 -save ck/ -save-every 2 -trace elastic.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/buildinfo"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/debugserver"
	"repro/internal/dist"
	"repro/internal/elastic"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dchag-train: ")
	var (
		task      = flag.String("task", "mae", "training task: mae | weather")
		ranks     = flag.Int("ranks", 2, "simulated D-CHAG (TP) ranks per replica (1 = serial baseline)")
		dp        = flag.Int("dp", 1, "data-parallel replicas (hybrid D-CHAG x DP when > 1)")
		kindFlag  = flag.String("kind", "L", "partial-layer kind: L (linear) | C (cross-attention)")
		tree      = flag.Int("tree", 0, "partial-module tree: 0 or 1 = one aggregation layer per partition, N >= 2 = N first-level groups plus a reducer")
		steps     = flag.Int("steps", 40, "optimizer steps")
		batch     = flag.Int("batch", 4, "global batch size")
		lr        = flag.Float64("lr", 3e-3, "AdamW learning rate")
		channels  = flag.Int("channels", 32, "channel count (mae task only; weather uses 80)")
		embed     = flag.Int("embed", 16, "embedding dimension")
		depth     = flag.Int("depth", 2, "transformer blocks")
		tpvit     = flag.Bool("tpvit", false, "also tensor-parallelize the ViT blocks")
		seed      = flag.Int64("seed", 2024, "master seed")
		save      = flag.String("save", "", "write checkpoints (weights + optimizer state) to this directory")
		saveEach  = flag.Int("save-every", 0, "also checkpoint every N optimizer steps (0: final step only)")
		keep      = flag.Int("keep", 1, "checkpoints to retain: the newest K step subdirectories of -save")
		load      = flag.String("load", "", "warm-start weights from this checkpoint directory (resharding as needed)")
		resume    = flag.String("resume", "", "resume exactly from this checkpoint directory (weights, optimizer moments, step)")
		parts     = flag.Int("partitions", 0, "logical D-CHAG partition count (0: one per rank; -load/-resume read it from the manifest)")
		elast     = flag.Bool("elastic", false, "run under the elastic fault-tolerant supervisor (requires -ranks > 1 and -save for recovery across rank loss)")
		minRanks  = flag.Int("min-ranks", 1, "smallest world size the elastic supervisor will re-rendezvous at")
		failRank  = flag.Int("fail-rank", -1, "inject a deterministic rank failure: kill this rank (elastic mode only)")
		failStep  = flag.Int("fail-step", -1, "inject the failure at the top of this global step (elastic mode only)")
		tracePath = flag.String("trace", "", "trace every rank's step phases and collectives and write them to this path as Chrome trace-event JSON")

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

	kind, err := checkFlags(runFlags{
		task: *task, kind: *kindFlag, channels: *channels, embed: *embed, depth: *depth, tree: *tree,
		ranks: *ranks, dp: *dp, elastic: *elast, load: *load != "", failRank: *failRank, failStep: *failStep,
		lr: *lr,
	})
	if err != nil {
		log.Fatal(err)
	}

	var arch model.Arch
	var batchFn train.BatchFn
	opts := train.Options{Steps: *steps, Batch: *batch, LR: *lr, ClipNorm: 1, Seed: *seed}

	switch *task {
	case "mae":
		arch = model.Arch{
			Config: core.Config{
				Channels: *channels, ImgH: 8, ImgW: 8, Patch: 2,
				Embed: *embed, Heads: heads, Tree: *tree, Kind: kind, Seed: *seed,
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
				Embed: *embed, Heads: heads, Tree: *tree, Kind: kind, Seed: *seed,
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
	if dir := opts.CheckpointDir; opts.Resume || *load != "" {
		if *load != "" {
			dir = *load
		}
		// Resolve a checkpoint root to its newest complete step directory;
		// a plain checkpoint directory resolves to itself.
		dir, err := ckpt.LatestDir(dir)
		if err != nil {
			log.Fatal(err)
		}
		man, err := ckpt.ReadManifest(dir)
		if err != nil {
			log.Fatal(err)
		}
		partitions = man.Partitions
		fmt.Printf("checkpoint %s: step %d, saved at %d ranks, %d logical partitions\n",
			dir, man.Step, man.World, partitions)
	}
	if partitions == 0 {
		partitions = *ranks
	}
	if err := checkPartitions(partitions, arch.Channels, *ranks); err != nil {
		log.Fatal(err)
	}
	arch.Partitions = partitions

	fmt.Printf("task=%s ranks=%d kind=%s tree=%d partitions=%d params(serial)=%d\n",
		*task, *ranks, kind, *tree, partitions, arch.ParamCount())

	var tr *obs.Tracer
	if *tracePath != "" {
		rows := *ranks * *dp
		if *elast {
			rows++ // the elastic supervisor's row
		}
		tr = obs.NewTracer(rows, traceEvents)
		for k, v := range buildinfo.Get().Meta() {
			tr.SetMeta(k, v)
		}
		tr.SetMeta("workload", fmt.Sprintf("%s tp=%d dp=%d elastic=%v", *task, *ranks, *dp, *elast))
		opts.Trace = tr
	}
	err = func() error {
		if *elast {
			eo := elastic.Options{TP: *ranks, DP: *dp, MinWorld: *minRanks, TPViT: *tpvit, Trace: tr}
			if *failRank >= 0 {
				eo.Plan = faultinject.NewPlan().KillAtStep(*failRank, *failStep)
			}
			rep, err := elastic.Run(arch, opts, eo, batchFn)
			for _, g := range rep.Generations {
				fmt.Printf("generation %d: %dx%d from %s at step %d (failed ranks %v)\n",
					g.Gen, g.TP, g.DP, g.Source, g.Start, g.Failed)
			}
			if err != nil {
				return err
			}
			printHistory(train.History{Loss: rep.Loss})
			return nil
		}
		return run(arch, *ranks, *dp, *tpvit, opts, batchFn)
	}()
	// The trace is written whatever the outcome: a failed run is the one
	// most worth reading.
	if tr != nil {
		err = errors.Join(err, writeTrace(*tracePath, tr))
	}
	if err != nil {
		log.Fatal(err)
	}
	if opts.CheckpointDir != "" {
		if dir, err := ckpt.LatestDir(opts.CheckpointDir); err == nil {
			fmt.Printf("newest checkpoint: %s\n", dir)
		}
	}
}

// run trains arch outside the elastic supervisor on the ranks×dp mesh and
// prints the loss history and one traffic line per mesh axis. At one rank
// each replica owns every partition: at one partition (the default) the
// paper's baseline, otherwise the serial equivalent of the partitioned
// model, the same logical state tree as any distributed run.
func run(arch model.Arch, ranks, dp int, tpvit bool, opts train.Options, batch train.BatchFn) error {
	hist, mesh, err := train.Hybrid(arch, ranks, dp, tpvit, opts, batch)
	printHistory(hist) // a failed run's completed steps too
	if err != nil {
		return err
	}
	fmt.Printf("D-CHAG(TP=%d) x DP=%d on %d simulated GPUs\n", ranks, dp, ranks*dp)
	for a := range dist.NumAxes {
		fmt.Printf("%s traffic: %d B\n", dist.Axis(a), mesh.AxisBytes(dist.Axis(a)))
	}
	return nil
}

// traceEvents is each row's event capacity under -trace, 1.2 MB a row: over
// a thousand default steps. A longer run keeps the newest events.
const traceEvents = 1 << 14

// writeTrace exports tr as Chrome trace-event JSON and reports the events
// its full rings dropped.
func writeTrace(path string, tr *obs.Tracer) error {
	if err := obs.WriteChromeTraceFile(path, tr); err != nil {
		return err
	}
	var dropped uint64
	for r := 0; r < tr.Rows(); r++ {
		dropped += tr.Dropped(r)
	}
	fmt.Printf("trace written to %s (%d rows, %d events dropped)\n", path, tr.Rows(), dropped)
	return nil
}

// heads is the attention head count of every model dchag-train builds.
const heads = 2

// runFlags is what checkFlags reads of the command line.
type runFlags struct {
	task, kind                   string
	channels, embed, depth, tree int
	ranks, dp                    int
	elastic, load                bool
	failRank, failStep           int
	lr                           float64
}

// checkFlags resolves the partial-layer kind the flags name and refuses,
// before any training, the flag combinations the run would otherwise
// ignore, misread or die on: an unknown kind, a model shape no layer can
// build, a mesh extent below 1, a warm start (-load) the elastic supervisor
// does not perform, a fault injected outside the elastic supervisor (or
// only half specified), and a learning rate that is not a finite positive
// number (a negative one trains by gradient ascent, NaN, which flag parses,
// makes every loss NaN).
func checkFlags(f runFlags) (core.LayerKind, error) {
	kind, ok := map[string]core.LayerKind{"L": core.KindLinear, "C": core.KindCross}[f.kind]
	if !ok {
		return kind, fmt.Errorf("unknown -kind %q (want L or C)", f.kind)
	}
	switch {
	case f.embed < heads || f.embed%heads != 0:
		return kind, fmt.Errorf("-embed %d: need a positive multiple of the %d attention heads", f.embed, heads)
	case f.depth < 1:
		return kind, fmt.Errorf("-depth %d: need at least 1 transformer block", f.depth)
	case f.task == "mae" && f.channels < 1:
		return kind, fmt.Errorf("-channels %d: need at least 1", f.channels)
	case f.tree < 0:
		return kind, fmt.Errorf("-tree %d: need 0 or more (0 and 1 mean one aggregation layer)", f.tree)
	case f.ranks < 1:
		return kind, fmt.Errorf("-ranks %d: need at least 1", f.ranks)
	case f.dp < 1:
		return kind, fmt.Errorf("-dp %d: need at least 1", f.dp)
	case f.elastic && f.ranks == 1:
		return kind, errors.New("-elastic requires -ranks > 1")
	case f.elastic && f.load:
		return kind, errors.New("-elastic does not warm-start from -load: the supervisor restores only its own checkpoints (-resume)")
	case !f.elastic && (f.failRank >= 0 || f.failStep >= 0):
		return kind, errors.New("-fail-rank and -fail-step inject a failure only under -elastic")
	case (f.failRank >= 0) != (f.failStep >= 0):
		return kind, errors.New("-fail-rank and -fail-step must be set together")
	case !(f.lr > 0 && f.lr <= math.MaxFloat64):
		return kind, fmt.Errorf("-lr %v: need a finite positive learning rate", f.lr)
	}
	return kind, nil
}

// checkPartitions refuses, before the run starts, a logical partition count
// the stage cannot be built with: below 1, above the channel count (every
// partition owns at least one channel), or not divisible by the rank count.
func checkPartitions(partitions, channels, ranks int) error {
	switch {
	case partitions < 1:
		return fmt.Errorf("partition count %d: need at least 1", partitions)
	case partitions > channels:
		return fmt.Errorf("partition count %d exceeds the channel count %d: every partition needs at least one channel", partitions, channels)
	case partitions%ranks != 0:
		return fmt.Errorf("partition count %d not divisible by %d ranks", partitions, ranks)
	}
	return nil
}

func printHistory(h train.History) {
	for s, l := range h.Loss {
		if s%5 == 0 || s == len(h.Loss)-1 {
			fmt.Printf("step %4d  loss %.6f\n", h.Start+s, l)
		}
	}
}
