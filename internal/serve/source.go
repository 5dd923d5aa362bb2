package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/model"
)

// Source builds one serving rank's model replica. Build is called once per
// mesh rank with that rank's TP-group communicator (size Config.Ranks); the
// returned model must be ready for Infer.
type Source interface {
	// Arch returns the architecture every replica realizes; the engine
	// derives its request/response geometry from it.
	Arch() model.Arch
	// Build constructs (and, for checkpoints, restores) the model slice for
	// one rank of a TP group.
	Build(tpc *comm.Communicator) (*model.FoundationModel, error)
}

// archSource serves fresh seeded weights — the hermetic benchmark source.
type archSource struct {
	arch model.Arch
}

// FromArch returns a Source building models with fresh seeded weights from
// the architecture alone (no checkpoint). Used by benchmarks and tests;
// outputs are deterministic in Arch.Seed like every model in this
// repository.
func FromArch(a model.Arch) Source { return archSource{arch: a} }

func (s archSource) Arch() model.Arch { return s.arch }

func (s archSource) Build(tpc *comm.Communicator) (*model.FoundationModel, error) {
	m, err := buildTopology(s.arch, tpc)
	if err != nil {
		return nil, err
	}
	m.SetEval(true)
	return m, nil
}

// ckptSource serves a dchag-ckpt/v2 checkpoint, resharding to the serving
// topology. The Checkpoint is opened once, read-only, and shared by every
// rank's Build.
type ckptSource struct {
	arch model.Arch
	ck   *ckpt.Checkpoint
}

// FromCheckpoint opens the newest complete checkpoint under dir (read-only;
// a training checkpoint root or one checkpoint directory, see
// ckpt.LatestDir) and returns a Source that reshards it to the serving
// topology. The architecture comes from the manifest's arch record
// (ckpt.MetaArch, written by the training loops); a checkpoint predating
// that record is refused, and so is one that does not hold exactly that
// model (model.Arch.CheckRestore: a record no model can be built from,
// another stage family, a missing or misshapen parameter, a tensor the
// model has no parameter for). Every refusal is an error, never a panic.
func FromCheckpoint(dir string) (Source, error) {
	ck, err := ckpt.OpenLatest(dir)
	if err != nil {
		return nil, err
	}
	blob, ok := ck.Manifest.Meta[ckpt.MetaArch]
	if !ok {
		return nil, fmt.Errorf("serve: checkpoint %s has no architecture record (%s); re-save it with this version", dir, ckpt.MetaArch)
	}
	var arch model.Arch
	if err := json.Unmarshal([]byte(blob), &arch); err != nil {
		return nil, fmt.Errorf("serve: decoding checkpoint architecture: %w", err)
	}
	// The logical partition count is a model property recorded in the
	// manifest; it, not the saving rank count, constrains the serving
	// topology.
	arch.Partitions = ck.Manifest.Partitions
	if err := arch.CheckRestore(ck); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: %w", dir, err)
	}
	return ckptSource{arch: arch, ck: ck}, nil
}

func (s ckptSource) Arch() model.Arch { return s.arch }

func (s ckptSource) Build(tpc *comm.Communicator) (*model.FoundationModel, error) {
	m, err := buildTopology(s.arch, tpc)
	if err != nil {
		return nil, err
	}
	if err := s.ck.RestoreParams(m.Params()); err != nil {
		return nil, err
	}
	m.SetEval(true)
	return m, nil
}

// buildTopology constructs the rank's D-CHAG slice of the model for one
// rank of a q-wide TP group; an unset partition count is one per rank.
func buildTopology(arch model.Arch, tpc *comm.Communicator) (*model.FoundationModel, error) {
	q := tpc.Size()
	if arch.Partitions == 0 {
		arch.Partitions = q
	}
	if arch.Partitions%q != 0 {
		return nil, fmt.Errorf("serve: %d serving ranks do not divide the model's %d logical partitions", q, arch.Partitions)
	}
	return model.NewDistributed(arch, tpc, false), nil
}
