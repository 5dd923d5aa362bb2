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

// stageDCHAG is the stage fingerprint recorded in checkpoint manifests so a
// load of another architecture family fails with a clear message instead of
// a wall of name mismatches: every model is the D-CHAG stage, at every rank
// and partition count, and any other fingerprint is refused.
const stageDCHAG = "dchag"

// modelPartitions returns the logical D-CHAG partition count of a model: the
// stage's partition count for a D-CHAG stage, 1 otherwise.
func modelPartitions(m *model.FoundationModel) int {
	if s, ok := m.Stage.(*model.DCHAGStage); ok {
		return s.Partitions
	}
	return 1
}

// commit commits the checkpoint of `step` completed optimizer steps, whose
// shards every saving rank has written into ckpt.StepDir(CheckpointDir,
// step), and prunes to the newest CheckpointKeep commits (0 and 1 both keep
// the newest one). The manifest records the stage fingerprint and the full
// architecture (JSON under ckpt.MetaArch), so inference tooling can rebuild
// the model from the checkpoint alone.
func (o Options) commit(world, partitions, step int, arch model.Arch) error {
	meta := map[string]string{ckpt.MetaStage: stageDCHAG}
	if blob, err := json.Marshal(arch); err == nil {
		meta[ckpt.MetaArch] = string(blob)
	}
	return ckpt.Commit(o.CheckpointDir, ckpt.Manifest{
		World:      world,
		Partitions: partitions,
		Step:       step,
		OptAlgo:    "adamw",
		Meta:       meta,
	}, max(o.CheckpointKeep, 1))
}

// checkStage rejects checkpoints saved from a different architecture
// family.
func checkStage(m ckpt.Manifest) error {
	if saved, ok := m.Meta[ckpt.MetaStage]; ok && saved != stageDCHAG {
		return fmt.Errorf("train: checkpoint was saved from a %q stage, this model is %q", saved, stageDCHAG)
	}
	return nil
}

// openRestore opens the checkpoint the Resume/InitFrom options name, or
// returns nil when no restore was requested. It runs once per training run
// — before the rank fan-out in distributed runs — so every rank shares one
// read-only *ckpt.Checkpoint instead of re-reading and re-assembling all
// shards per goroutine. Both paths open the newest complete checkpoint
// under the directory (ckpt.LatestDir: partial saves are skipped, and a
// plain checkpoint directory opens as itself).
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

// restoreStart applies an opened checkpoint (nil: fresh run) to params and
// opt per the Resume/InitFrom options, returning the step index training
// starts from (0 unless resuming). All validation — stage fingerprint,
// partition count, step bound — happens before anything is written, so a
// failed restore leaves model and optimizer untouched. The caller's logical
// partition count must match a resumed checkpoint's: the partition count is
// a model property, so a mismatch means a genuinely different model, not a
// resharding.
func restoreStart(ck *ckpt.Checkpoint, opts Options, params []*nn.Param, opt optim.Stateful, partitions int) (int, error) {
	if ck == nil {
		return 0, nil
	}
	if err := checkStage(ck.Manifest); err != nil {
		return 0, err
	}
	if opts.InitFrom != "" {
		return 0, ck.RestoreParams(params)
	}
	if ck.Manifest.Partitions != partitions {
		return 0, fmt.Errorf("train: checkpoint has %d logical partitions, model has %d (set the model's partition count from the manifest)",
			ck.Manifest.Partitions, partitions)
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
