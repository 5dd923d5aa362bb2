// Checkpoint: demonstrate shard-aware, reshardable checkpointing
// (internal/ckpt). A D-CHAG model with 4 logical channel partitions is
// trained for a few steps on 4 simulated ranks and checkpointed (one shard
// file per rank plus a manifest, in a step subdirectory); the run is then
// resumed — exactly, Adam moments and mask stream included — on 2 ranks and
// serially, and all three continuations produce bit-identical loss
// trajectories, because a checkpoint describes the logical model, not the
// topology that saved it.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	const (
		partitions = 4
		steps      = 6
		half       = 3
		batchSize  = 2
	)
	arch := model.Arch{
		Config: core.Config{
			Channels: 8, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 16, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 42,
		},
		Depth: 1, MetaTokens: 1, Partitions: partitions,
	}
	gen := data.NewHyperspectral(data.HyperspectralConfig{
		Images: steps * batchSize, Channels: arch.Channels, ImgH: 8, ImgW: 8,
		Endmembers: 3, Noise: 0.01, Seed: 7,
	})
	batch := func(s int) (*tensor.Tensor, *tensor.Tensor) {
		x := gen.Batch(s*batchSize, batchSize)
		return x, x
	}
	opts := train.Options{Steps: steps, Batch: batchSize, LR: 1e-2, MaskRatio: 0.5, Seed: 3, ClipNorm: 1}

	// The uninterrupted reference trajectory.
	full, _, err := train.Distributed(arch, partitions, false, opts, batch)
	if err != nil {
		log.Fatal(err)
	}

	// Train half the steps on 4 ranks and checkpoint.
	dir, err := os.MkdirTemp("", "dchag-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	firstOpts := opts
	firstOpts.Steps = half
	firstOpts.CheckpointDir = dir
	if _, _, err := train.Distributed(arch, partitions, false, firstOpts, batch); err != nil {
		log.Fatal(err)
	}
	// The save committed into a step subdirectory of dir.
	saved, err := ckpt.LatestDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	man, err := ckpt.ReadManifest(saved)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: step %d, %d shards, %d logical partitions\n",
		man.Step, man.World, man.Partitions)

	// Resume on 2 ranks and serially: same logical model, same trajectory.
	// Each continuation resumes from its own copy, since resumed runs write
	// their next checkpoint into the directory they resume from.
	resume := opts
	resume.Resume = true
	resume.CheckpointDir = copyDir(saved)
	twoRank, _, err := train.Distributed(arch, 2, false, resume, batch)
	if err != nil {
		log.Fatal(err)
	}
	os.RemoveAll(resume.CheckpointDir)
	resume.CheckpointDir = copyDir(saved)
	serial, err := train.SerialCheckpointed(model.NewSerialDCHAGEquivalent(arch, partitions), resume, batch)
	if err != nil {
		log.Fatal(err)
	}
	os.RemoveAll(resume.CheckpointDir)

	// Across topologies the trajectories agree to float64 round-off (the
	// distributed clip-norm reduction associates sums differently than the
	// serial loop); at the same topology resume is bitwise.
	const tol = 1e-12
	fmt.Println("step  uninterrupted   resumed@2ranks  resumed@serial")
	for s := half; s < steps; s++ {
		a, b, c := full.Loss[s], twoRank.Loss[s-half], serial.Loss[s-half]
		fmt.Printf("%4d  %.12f  %.12f  %.12f\n", s, a, b, c)
		if math.Abs(a-b) > tol*math.Abs(a) || math.Abs(a-c) > tol*math.Abs(a) {
			log.Fatal("trajectories diverged — resharded resume must continue the run")
		}
	}
	fmt.Println("resharded resume continues the trajectory: 4 ranks -> {2 ranks, serial}")
}

// copyDir clones a checkpoint directory into a fresh temp directory.
func copyDir(src string) string {
	dst, err := os.MkdirTemp("", "dchag-ckpt-copy-*")
	if err != nil {
		log.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(dst+"/"+e.Name(), data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	return dst
}
