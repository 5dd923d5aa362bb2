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

// Stage fingerprints recorded in checkpoint manifests so a load into the
// wrong architecture family fails with a clear message instead of a wall of
// name mismatches. "dchag" covers both the distributed stage and its serial
// Reference equivalent — they are the same logical model.
const (
	stageDCHAG  = "dchag"
	stageSerial = "serial"
)

// stageKind fingerprints a model's channel stage for the manifest.
func stageKind(m *model.FoundationModel) string {
	switch m.Stage.(type) {
	case *model.DCHAGStage, *model.ReferenceStage:
		return stageDCHAG
	default:
		return stageSerial
	}
}

// modelPartitions returns the logical D-CHAG partition count of a model: the
// stage's partition count for partitioned stages, 1 otherwise.
func modelPartitions(m *model.FoundationModel) int {
	switch s := m.Stage.(type) {
	case *model.DCHAGStage:
		return s.Partitions
	case *model.ReferenceStage:
		return s.P
	default:
		return 1
	}
}

// writeShard snapshots one rank's parameters and optimizer state into the
// checkpoint directory.
func writeShard(dir string, rank int, params []*nn.Param, opt optim.Stateful) error {
	return ckpt.WriteShard(dir, rank, ckpt.BuildTree(params, opt))
}

// keep normalizes CheckpointKeep: 0 and 1 are the single-slot layout.
func (o Options) keep() int {
	if o.CheckpointKeep < 1 {
		return 1
	}
	return o.CheckpointKeep
}

// checkpointTarget returns the directory the checkpoint committed after
// `step` completed optimizer steps writes into: CheckpointDir itself under
// the single-slot layout, its step-numbered retention subdirectory under
// keep-last-k.
func (o Options) checkpointTarget(step int) string {
	if o.keep() == 1 {
		return o.CheckpointDir
	}
	return ckpt.StepDir(o.CheckpointDir, step)
}

// pruneCheckpoints applies the keep-last-k retention policy after a
// successful commit. It is a no-op under the single-slot layout, and only
// ever deletes committed step directories — never the one a concurrent
// save is still writing (its manifest lands last), never foreign entries.
func (o Options) pruneCheckpoints() error {
	if o.keep() == 1 {
		return nil
	}
	_, err := ckpt.Prune(o.CheckpointDir, o.keep())
	return err
}

// writeManifest commits a checkpoint: call only after every rank's shard is
// written. The manifest records the stage fingerprint and the full
// architecture (JSON under ckpt.MetaArch), so inference tooling can rebuild
// the model from the checkpoint alone.
func writeManifest(dir string, world, partitions, step int, stage string, arch model.Arch) error {
	meta := map[string]string{ckpt.MetaStage: stage}
	if blob, err := json.Marshal(arch); err == nil {
		meta[ckpt.MetaArch] = string(blob)
	}
	return ckpt.WriteManifest(dir, ckpt.Manifest{
		World:      world,
		Partitions: partitions,
		Step:       step,
		OptAlgo:    "adamw",
		Meta:       meta,
	})
}

// checkStage rejects checkpoints saved from a different architecture
// family.
func checkStage(m ckpt.Manifest, stage string) error {
	if saved, ok := m.Meta[ckpt.MetaStage]; ok && saved != stage {
		return fmt.Errorf("train: checkpoint was saved from a %q stage, this model is %q", saved, stage)
	}
	return nil
}

// openRestore opens the checkpoint the Resume/InitFrom options name, or
// returns nil when no restore was requested. It runs once per training run
// — before the rank fan-out in distributed runs — so every rank shares one
// read-only *ckpt.Checkpoint instead of re-reading and re-assembling all
// shards per goroutine. Both paths resolve through the retention layout:
// a single-slot directory opens as itself, a keep-last-k root opens its
// newest complete checkpoint (partial saves are skipped).
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
func restoreStart(ck *ckpt.Checkpoint, opts Options, params []*nn.Param, opt optim.Stateful, partitions int, stage string) (int, error) {
	if ck == nil {
		return 0, nil
	}
	if err := checkStage(ck.Manifest, stage); err != nil {
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
// uninterrupted run would have drawn. Each accumulation micro-step consumes
// one full-batch mask; forecast runs (MaskRatio == 0) consume nothing.
func fastForwardMasks(rng *rand.Rand, steps int, opts Options, tokens int) {
	if opts.MaskRatio <= 0 || steps <= 0 {
		return
	}
	for i := 0; i < steps*opts.accum(); i++ {
		data.RandomMask(rng, opts.Batch, tokens, opts.MaskRatio)
	}
}
