// Command dchag-memplan answers the feasibility questions of the paper's
// Secs. 4.3 and 6.1 for arbitrary configurations: given a model size, a
// channel count and a parallel strategy, it prints the per-component memory
// breakdown on a Frontier GCD, whether the configuration fits, the largest
// micro-batch that fits, and the minimum TP degree that would fit.
//
// Examples:
//
//	dchag-memplan -model 7B -channels 512 -tp 16
//	dchag-memplan -model 26B -channels 256 -method dchag -tp 32 -kind L
//	dchag-memplan -model 1.7B -channels 1024 -sweep
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dchag-memplan: ")
	var (
		modelName = flag.String("model", "7B", "model size: 100M 1B 1.7B 3B 7B 15B 26B")
		channels  = flag.Int("channels", 512, "input channel count")
		method    = flag.String("method", "baseline", "channel stage: baseline | disttok | dchag")
		tp        = flag.Int("tp", 1, "tensor-parallel degree")
		fsdp      = flag.Int("fsdp", 1, "FSDP group size")
		dp        = flag.Int("dp", 1, "data-parallel group size")
		tree      = flag.Int("tree", 0, "D-CHAG tree configuration")
		kindFlag  = flag.String("kind", "L", "D-CHAG partial-layer kind: L | C")
		batch     = flag.Int("batch", 4, "micro-batch size")
		sweep     = flag.Bool("sweep", false, "sweep TP degrees and print the feasibility frontier")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	shape, strat, err := checkFlags(planFlags{
		model: *modelName, method: *method, kind: *kindFlag,
		channels: *channels, batch: *batch, tp: *tp, fsdp: *fsdp, dp: *dp, tree: *tree,
	})
	if err != nil {
		log.Fatal(err)
	}

	machine := hw.Frontier()
	cal := perfmodel.DefaultCalibration()
	wl := perfmodel.ReferenceWorkload(*channels)
	wl.MicroBatch = *batch

	if *sweep {
		fmt.Printf("%s, %d channels, %s: TP feasibility sweep (micro-batch %d)\n", shape.Name, *channels, strat.Method, *batch)
		for t := 1; t <= 32; t *= 2 {
			if shape.Heads%t != 0 {
				continue
			}
			if strat.Method != perfmodel.MethodBaseline && t > *channels {
				continue
			}
			s := strat
			s.TP = t
			r := perfmodel.Analyze(shape, wl, s, machine, cal)
			fmt.Printf("  TP=%-3d %8.1f GiB/GPU  %s\n", t, r.TotalMemBytes()/(1<<30), status(r))
		}
		return
	}

	r := perfmodel.Analyze(shape, wl, strat, machine, cal)
	fmt.Printf("%s, %d channels, %s, micro-batch %d, %d GPUs\n", shape.Name, *channels, strat.Label(), *batch, strat.World())
	fmt.Printf("  usable GCD memory: %s\n\n", hw.FormatBytes(machine.UsableMemBytes()))
	for _, c := range perfmodel.Components {
		fmt.Printf("  %-13s params %12.0f   act %8.1f GiB   state %8.1f GiB\n",
			c, r.ParamsPerGPU[c], r.ActBytes[c]/(1<<30), r.StateBytes[c]/(1<<30))
	}
	fmt.Printf("\n  total: %.1f GiB (%.0f%% of usable) -> %s\n",
		r.TotalMemBytes()/(1<<30), 100*r.MemFraction(), status(r))
	fmt.Printf("  max micro-batch at this config: %d\n",
		perfmodel.MaxMicroBatch(shape, perfmodel.ReferenceWorkload(*channels), strat, machine, cal))
	if minTP, bound := perfmodel.MinTPToFit(shape, wl, strat, machine, cal, 32); minTP > 0 {
		fmt.Printf("  minimum TP that fits: %d\n", minTP)
	} else {
		fmt.Printf("  no TP degree up to %d fits this configuration\n", bound)
	}
	fmt.Printf("  modeled step time: %.3f s (compute %.3f + exposed comm %.3f; %.3f s comm before overlap, %.3f s serial), %.1f TFLOPs/s/node\n",
		r.StepSeconds(), r.ComputeSeconds, r.ExposedCommSeconds, r.CommSeconds, r.SerialStepSeconds(), r.TFLOPsPerSecPerNode())
	if !r.Fits() {
		os.Exit(2)
	}
}

// planFlags is what checkFlags reads of the command line.
type planFlags struct {
	model, method, kind                 string
	channels, batch, tp, fsdp, dp, tree int
}

// checkFlags resolves the model shape and the strategy the flags name, and
// refuses what the model would otherwise misread: an unknown model, method
// or partial-layer kind, a mesh extent, channel count or micro-batch below
// 1 (perfmodel.Strategy would clamp an extent to 1), a negative tree, and a
// D-CHAG group wider than the channels it shards.
func checkFlags(f planFlags) (perfmodel.ModelShape, perfmodel.Strategy, error) {
	shape, ok := perfmodel.Shapes[f.model]
	if !ok {
		names := make([]string, 0, len(perfmodel.Shapes))
		for n := range perfmodel.Shapes {
			names = append(names, n)
		}
		sort.Strings(names)
		return shape, perfmodel.Strategy{}, fmt.Errorf("unknown model %q (have %v)", f.model, names)
	}
	s := perfmodel.Strategy{TP: f.tp, FSDP: f.fsdp, DP: f.dp, Tree: f.tree}
	switch f.method {
	case "baseline":
		s.Method = perfmodel.MethodBaseline
	case "disttok":
		s.Method = perfmodel.MethodDistTok
	case "dchag":
		s.Method = perfmodel.MethodDCHAG
	default:
		return shape, s, fmt.Errorf("unknown method %q (want baseline, disttok or dchag)", f.method)
	}
	switch f.kind {
	case "L":
		s.Kind = core.KindLinear
	case "C":
		s.Kind = core.KindCross
	default:
		return shape, s, fmt.Errorf("unknown kind %q (want L or C)", f.kind)
	}
	for _, e := range []struct {
		name string
		v    int
	}{{"-channels", f.channels}, {"-batch", f.batch}, {"-tp", f.tp}, {"-fsdp", f.fsdp}, {"-dp", f.dp}} {
		if e.v < 1 {
			return shape, s, fmt.Errorf("%s %d: need at least 1", e.name, e.v)
		}
	}
	if f.tree < 0 {
		return shape, s, fmt.Errorf("-tree %d: need 0 or more", f.tree)
	}
	if s.Method == perfmodel.MethodDCHAG && f.tp > f.channels {
		return shape, s, fmt.Errorf("-tp %d: D-CHAG shards %d channels, at least one per rank", f.tp, f.channels)
	}
	return shape, s, nil
}

func status(r perfmodel.Report) string {
	if r.Fits() {
		return "fits"
	}
	return "OOM"
}
