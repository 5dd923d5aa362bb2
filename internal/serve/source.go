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
	m, err := buildTopology(s.arch, "dchag", tpc)
	if err != nil {
		return nil, err
	}
	m.SetEval(true)
	return m, nil
}

// ckptSource serves a dchag-ckpt/v1 checkpoint, resharding to the serving
// topology. The Checkpoint is opened once, read-only, and shared by every
// rank's Build.
type ckptSource struct {
	arch  model.Arch
	stage string
	ck    *ckpt.Checkpoint
}

// FromCheckpoint opens the newest complete checkpoint under dir (read-only;
// single-slot and keep-last-k retention layouts both resolve) and returns a
// Source that reshards it to the serving topology. The architecture comes
// from the manifest's arch record (ckpt.MetaArch, written by the training
// loops); a checkpoint predating that record is refused.
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
	return newCkptSource(ck, arch), nil
}

func newCkptSource(ck *ckpt.Checkpoint, arch model.Arch) Source {
	// The logical partition count is a model property recorded in the
	// manifest; it, not the saving rank count, constrains the serving
	// topology.
	arch.Partitions = ck.Manifest.Partitions
	stage := ck.Manifest.Meta[ckpt.MetaStage]
	if stage == "" {
		stage = "dchag"
	}
	return ckptSource{arch: arch, stage: stage, ck: ck}
}

func (s ckptSource) Arch() model.Arch { return s.arch }

func (s ckptSource) Build(tpc *comm.Communicator) (*model.FoundationModel, error) {
	m, err := buildTopology(s.arch, s.stage, tpc)
	if err != nil {
		return nil, err
	}
	if err := s.ck.RestoreParams(m.Params()); err != nil {
		return nil, err
	}
	m.SetEval(true)
	return m, nil
}

// buildTopology constructs the model slice for one rank of a q-wide TP
// group: the plain serial model for "serial"-stage checkpoints (q must be
// 1), the serial D-CHAG equivalent at q=1, the distributed slice otherwise.
func buildTopology(arch model.Arch, stage string, tpc *comm.Communicator) (*model.FoundationModel, error) {
	q := tpc.Size()
	partitions := arch.Partitions
	if partitions == 0 {
		partitions = q
		arch.Partitions = q
	}
	if stage == "serial" {
		if q != 1 {
			return nil, fmt.Errorf("serve: a %q-stage checkpoint has no channel sharding; serve it with Ranks=1, not %d", stage, q)
		}
		return model.NewSerial(arch), nil
	}
	if partitions%q != 0 {
		return nil, fmt.Errorf("serve: %d serving ranks do not divide the model's %d logical partitions", q, partitions)
	}
	if q == 1 {
		return model.NewSerialDCHAGEquivalent(arch, partitions), nil
	}
	return model.NewDistributed(arch, tpc, false), nil
}
