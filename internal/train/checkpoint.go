package train

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
)

// manifest is the manifest of every training checkpoint, committed or an
// elastic in-memory boundary: besides the layout it records the stage
// family and the architecture (JSON under ckpt.MetaArch), so inference
// tooling can rebuild the model from the checkpoint alone.
func manifest(world, partitions, step int, optAlgo string, arch model.Arch) (ckpt.Manifest, error) {
	blob, err := json.Marshal(arch)
	if err != nil {
		return ckpt.Manifest{}, fmt.Errorf("train: encode arch: %w", err)
	}
	return ckpt.Manifest{
		Format:     ckpt.Format,
		World:      world,
		Partitions: partitions,
		Step:       step,
		OptAlgo:    optAlgo,
		Meta:       map[string]string{ckpt.MetaStage: model.StageName, ckpt.MetaArch: string(blob)},
	}, nil
}

// commit commits the checkpoint of `step` completed optimizer steps, whose
// shards every saving rank has written into ckpt.StepDir(CheckpointDir,
// step), and prunes to the newest CheckpointKeep commits (0 and 1 both keep
// the newest one).
func (o Options) commit(world, partitions, step int, arch model.Arch) error {
	man, err := manifest(world, partitions, step, "adamw", arch)
	if err != nil {
		return err
	}
	return ckpt.Commit(o.CheckpointDir, man, max(o.CheckpointKeep, 1))
}

// openRestore opens the checkpoint the Resume/InitFrom options name, or
// returns nil when no restore was requested. It runs once per training run
// — before the rank fan-out in distributed runs — so every rank shares one
// read-only *ckpt.Checkpoint instead of re-reading and re-assembling all
// shards per goroutine. Both paths open the newest complete checkpoint
// under the directory (ckpt.LatestDir: partial saves are skipped, and a
// plain checkpoint directory opens as itself). Whoever runs the ranks checks
// it against the logical model (checkRestore) before they start.
func openRestore(opts Options) (*ckpt.Checkpoint, error) {
	switch {
	case opts.InitFrom != "":
		return ckpt.OpenLatest(opts.InitFrom)
	case opts.Resume:
		return ckpt.OpenLatest(opts.CheckpointDir)
	default:
		return nil, nil
	}
}

// checkRestore refuses, once and before any rank restores, a restore source
// (nil: a fresh run) that is not the logical model arch describes at
// `partitions` logical partitions (model.Arch.CheckRestore).
func checkRestore(ck *ckpt.Checkpoint, arch model.Arch, partitions int) error {
	if ck == nil {
		return nil
	}
	arch.Partitions = partitions
	return arch.CheckRestore(ck)
}

// restoreStart applies an opened checkpoint (nil: fresh run), which
// checkRestore has accepted, to params and opt per the Resume/InitFrom
// options, returning the step index training starts from (0 unless
// resuming). The step bound is checked before anything is written, so a
// failed restore leaves model and optimizer untouched.
func restoreStart(ck *ckpt.Checkpoint, opts Options, params []*nn.Param, opt optim.Stateful) (int, error) {
	if ck == nil {
		return 0, nil
	}
	if opts.InitFrom != "" {
		return 0, ck.RestoreParams(params)
	}
	if ck.Manifest.Step > opts.Steps {
		return 0, fmt.Errorf("train: checkpoint is at step %d, beyond Steps=%d", ck.Manifest.Step, opts.Steps)
	}
	if err := ck.RestoreParams(params); err != nil {
		return 0, err
	}
	if err := ck.RestoreOptimizer(opt, params); err != nil {
		return 0, err
	}
	return ck.Manifest.Step, nil
}

// fastForwardMasks replays the mask stream consumed by `steps` completed
// optimizer steps, so a resumed run draws exactly the masks the
// uninterrupted run would have drawn. Each step consumes one full-batch
// mask; forecast runs (MaskRatio == 0) consume nothing.
func fastForwardMasks(rng *rand.Rand, steps int, opts Options, tokens int) {
	if opts.MaskRatio <= 0 || steps <= 0 {
		return
	}
	for i := 0; i < steps; i++ {
		data.RandomMask(rng, opts.Batch, tokens, opts.MaskRatio)
	}
}
